//! Lowercase hex, the one text form of bytes: instance payloads in
//! session documents, cache keys in file names, blob digests on
//! display.

/// `DIGIT_PAIRS[b]` is `b` as two lowercase hex digits.
static DIGIT_PAIRS: [[u8; 2]; 256] = digit_pairs();

const fn digit_pairs() -> [[u8; 2]; 256] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut pairs = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        pairs[b] = [HEX[b >> 4], HEX[b & 0xf]];
        b += 1;
    }
    pairs
}

/// `bytes` as lowercase hex, two digits per byte.
pub fn encode(bytes: &[u8]) -> String {
    let mut text = vec![0u8; 2 * bytes.len()];
    for (pair, &b) in text.chunks_exact_mut(2).zip(bytes) {
        pair.copy_from_slice(&DIGIT_PAIRS[usize::from(b)]);
    }
    String::from_utf8(text).expect("hex digits are ASCII")
}

/// The bytes `text` encodes, or `None` unless `text` is an even number
/// of lowercase hex digits.
pub fn decode(text: &str) -> Option<Vec<u8>> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(text.len() / 2);
    for pair in text.chunks_exact(2) {
        bytes.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Some(bytes)
}

/// Value of one lowercase hex digit.
fn nibble(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table encoder writes every byte value as a per-nibble
    /// encoder does, and the decoder reads it back but accepts nothing
    /// other than pairs of lowercase digits.
    #[test]
    fn every_byte_value_encodes_like_the_per_nibble_encoder() {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let all: Vec<u8> = (0..=255).collect();
        let mut per_nibble = String::new();
        for &b in &all {
            per_nibble.push(char::from(HEX[usize::from(b >> 4)]));
            per_nibble.push(char::from(HEX[usize::from(b & 0xf)]));
        }
        assert_eq!(encode(&all), per_nibble);
        assert_eq!(decode(&per_nibble), Some(all));
        assert_eq!(encode(&[]), "");
        assert_eq!(decode(""), Some(Vec::new()));
        for bad in ["686", "zz", "6G", "6869 ", "AB"] {
            assert_eq!(decode(bad), None, "{bad} decoded");
        }
    }
}

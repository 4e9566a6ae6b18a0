//! Content digests and checksums for Hercules, with no dependencies:
//! SHA-256, the content identity of instance payloads and the hash
//! under cache keys; CRC32, the framing checksum of journal frames and
//! cache entries; and the lowercase hex codec that writes both kinds
//! of bytes as text.
//!
//! This is the one crate of the workspace that contains `unsafe`, and
//! only in two private modules: `sha256::shani` and `crc::clmul`, the
//! x86-64 SHA-256 and CRC32 kernels. Each calls its kernel only through
//! a token type that runtime feature detection alone constructs, and
//! every `unsafe` block states why it holds.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

mod crc;
pub mod hex;
mod sha256;

pub use crc::crc32;
pub use sha256::{sha256, Sha256};

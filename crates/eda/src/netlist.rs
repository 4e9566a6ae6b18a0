//! The netlist data model: gate-level and transistor-level circuits
//! with a canonical text format.
//!
//! Tool encapsulations exchange design data as bytes (the 1993 tools
//! read and wrote files); [`Netlist::to_text`] / [`Netlist::parse`] are
//! that file format.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::EdaError;

/// A combinational gate kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// Inverter (1 input).
    Inv,
    /// Buffer (1 input).
    Buf,
    /// N-input AND.
    And,
    /// N-input OR.
    Or,
    /// N-input NAND.
    Nand,
    /// N-input NOR.
    Nor,
    /// 2-input XOR.
    Xor,
    /// 2-input XNOR.
    Xnor,
}

impl GateKind {
    /// Parses a lowercase gate keyword.
    pub fn from_keyword(kw: &str) -> Option<GateKind> {
        match kw {
            "inv" => Some(GateKind::Inv),
            "buf" => Some(GateKind::Buf),
            "and" => Some(GateKind::And),
            "or" => Some(GateKind::Or),
            "nand" => Some(GateKind::Nand),
            "nor" => Some(GateKind::Nor),
            "xor" => Some(GateKind::Xor),
            "xnor" => Some(GateKind::Xnor),
            _ => None,
        }
    }

    /// Returns the lowercase keyword for the text format.
    pub fn keyword(self) -> &'static str {
        match self {
            GateKind::Inv => "inv",
            GateKind::Buf => "buf",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
        }
    }

    /// Nominal propagation delay in simulator time units.
    pub fn delay(self) -> u64 {
        match self {
            GateKind::Inv | GateKind::Buf => 1,
            GateKind::Nand | GateKind::Nor => 2,
            GateKind::And | GateKind::Or => 3,
            GateKind::Xor | GateKind::Xnor => 4,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// MOS transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MosKind {
    /// N-channel device (passes 0 when gate is 1).
    Nmos,
    /// P-channel device (passes 1 when gate is 0).
    Pmos,
}

/// A circuit element: a logic gate or a MOS transistor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Device {
    /// A combinational gate driving `output` from `inputs`.
    Gate {
        /// Gate kind.
        kind: GateKind,
        /// Input net indexes.
        inputs: Vec<usize>,
        /// Output net index.
        output: usize,
    },
    /// A rising-edge D flip-flop: `q` samples `d` on each 0→1
    /// transition of `clk`.
    Dff {
        /// Data input net index.
        d: usize,
        /// Clock net index.
        clk: usize,
        /// Output net index.
        q: usize,
    },
    /// A MOS transistor between `source` and `drain`, controlled by
    /// `gate`, with a `width` sizing attribute the optimizers adjust.
    Mos {
        /// Polarity.
        kind: MosKind,
        /// Gate net index.
        gate: usize,
        /// Source net index.
        source: usize,
        /// Drain net index.
        drain: usize,
        /// Channel width in arbitrary units (sized by optimizers).
        width: f64,
    },
}

/// A netlist: named nets, port lists, and devices.
///
/// # Examples
///
/// ```
/// use hercules_eda::{GateKind, Netlist};
///
/// let mut n = Netlist::new("inv_chain");
/// let a = n.add_port_in("a");
/// let m = n.add_net("m");
/// let y = n.add_port_out("y");
/// n.add_gate(GateKind::Inv, &[a], m);
/// n.add_gate(GateKind::Inv, &[m], y);
/// assert_eq!(n.gate_count(), 2);
/// let text = n.to_text();
/// let back = Netlist::parse(&text).expect("canonical format round-trips");
/// assert_eq!(back, n);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    /// Circuit name.
    pub name: String,
    nets: Vec<String>,
    inputs: Vec<usize>,
    outputs: Vec<usize>,
    devices: Vec<Device>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: &str) -> Netlist {
        let mut n = Netlist {
            name: name.to_owned(),
            nets: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            devices: Vec::new(),
        };
        // Net 0/1 are the implicit supply rails.
        n.add_net("gnd");
        n.add_net("vdd");
        n
    }

    /// Index of the ground rail.
    pub const GND: usize = 0;
    /// Index of the supply rail.
    pub const VDD: usize = 1;

    /// Adds (or finds) a net by name; returns its index.
    pub fn add_net(&mut self, name: &str) -> usize {
        if let Some(i) = self.net_index(name) {
            return i;
        }
        self.nets.push(name.to_owned());
        self.nets.len() - 1
    }

    /// Adds a net and declares it a primary input.
    pub fn add_port_in(&mut self, name: &str) -> usize {
        let i = self.add_net(name);
        if !self.inputs.contains(&i) {
            self.inputs.push(i);
        }
        i
    }

    /// Adds a net and declares it a primary output.
    pub fn add_port_out(&mut self, name: &str) -> usize {
        let i = self.add_net(name);
        if !self.outputs.contains(&i) {
            self.outputs.push(i);
        }
        i
    }

    /// Adds a gate device.
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[usize], output: usize) {
        self.devices.push(Device::Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
        });
    }

    /// Adds a rising-edge D flip-flop.
    pub fn add_dff(&mut self, d: usize, clk: usize, q: usize) {
        self.devices.push(Device::Dff { d, clk, q });
    }

    /// Adds a MOS transistor with default width 1.0.
    pub fn add_mos(&mut self, kind: MosKind, gate: usize, source: usize, drain: usize) {
        self.devices.push(Device::Mos {
            kind,
            gate,
            source,
            drain,
            width: 1.0,
        });
    }

    /// Returns the index of a net by name.
    pub fn net_index(&self, name: &str) -> Option<usize> {
        self.nets.iter().position(|n| n == name)
    }

    /// Returns a net's name.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn net_name(&self, index: usize) -> &str {
        &self.nets[index]
    }

    /// Returns the number of nets (including the rails).
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Returns the primary input net indexes.
    pub fn inputs(&self) -> &[usize] {
        &self.inputs
    }

    /// Returns the primary output net indexes.
    pub fn outputs(&self) -> &[usize] {
        &self.outputs
    }

    /// Returns the devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Returns mutable access to the devices (for the optimizers'
    /// width adjustments).
    pub fn devices_mut(&mut self) -> &mut [Device] {
        &mut self.devices
    }

    /// Returns the number of gate devices.
    pub fn gate_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| matches!(d, Device::Gate { .. }))
            .count()
    }

    /// Returns the number of flip-flops.
    pub fn dff_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| matches!(d, Device::Dff { .. }))
            .count()
    }

    /// Returns `true` if the netlist contains flip-flops (sequential
    /// logic).
    pub fn is_sequential(&self) -> bool {
        self.dff_count() > 0
    }

    /// Returns the number of MOS devices.
    pub fn mos_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| matches!(d, Device::Mos { .. }))
            .count()
    }

    /// Returns `true` if the netlist contains only gates.
    pub fn is_gate_level(&self) -> bool {
        self.mos_count() == 0
    }

    /// Returns `true` if the netlist contains only transistors.
    pub fn is_transistor_level(&self) -> bool {
        self.gate_count() == 0 && self.dff_count() == 0
    }

    // ------------------------------------------------------------------
    // Canonical text format.
    // ------------------------------------------------------------------

    /// Emits the canonical text form.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, ".circuit {}", self.name);
        // Declare nets in index order so parsing reproduces the exact
        // numbering (rails are implicit).
        for net in &self.nets[2..] {
            let _ = writeln!(out, ".net {net}");
        }
        for &i in &self.inputs {
            let _ = writeln!(out, ".input {}", self.nets[i]);
        }
        for &o in &self.outputs {
            let _ = writeln!(out, ".output {}", self.nets[o]);
        }
        for d in &self.devices {
            match d {
                Device::Gate {
                    kind,
                    inputs,
                    output,
                } => {
                    let ins: Vec<&str> = inputs.iter().map(|&i| self.nets[i].as_str()).collect();
                    let _ = writeln!(
                        out,
                        ".gate {} {} -> {}",
                        kind.keyword(),
                        ins.join(" "),
                        self.nets[*output]
                    );
                }
                Device::Dff { d, clk, q } => {
                    let _ = writeln!(
                        out,
                        ".dff d={} clk={} q={}",
                        self.nets[*d], self.nets[*clk], self.nets[*q]
                    );
                }
                Device::Mos {
                    kind,
                    gate,
                    source,
                    drain,
                    width,
                } => {
                    let kw = match kind {
                        MosKind::Nmos => "nmos",
                        MosKind::Pmos => "pmos",
                    };
                    let _ = writeln!(
                        out,
                        ".{kw} g={} s={} d={} w={width}",
                        self.nets[*gate], self.nets[*source], self.nets[*drain]
                    );
                }
            }
        }
        out.push_str(".end\n");
        out
    }

    /// Emits the canonical text form as bytes (the blob payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_text().into_bytes()
    }

    /// Parses the canonical text form.
    ///
    /// # Errors
    ///
    /// Returns [`EdaError::Parse`] on malformed input.
    pub fn parse(text: &str) -> Result<Netlist, EdaError> {
        let err = |detail: &str| EdaError::Parse {
            what: "netlist".into(),
            detail: detail.to_owned(),
        };
        let mut netlist: Option<Netlist> = None;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let keyword = parts.next().ok_or_else(|| err("empty line"))?;
            match keyword {
                ".circuit" => {
                    let name = parts.next().ok_or_else(|| err("missing circuit name"))?;
                    netlist = Some(Netlist::new(name));
                }
                ".end" => break,
                _ => {
                    let n = netlist
                        .as_mut()
                        .ok_or_else(|| err("directive before .circuit"))?;
                    match keyword {
                        ".net" => {
                            let name = parts.next().ok_or_else(|| err("missing net name"))?;
                            n.add_net(name);
                        }
                        ".input" => {
                            let name = parts.next().ok_or_else(|| err("missing input name"))?;
                            n.add_port_in(name);
                        }
                        ".output" => {
                            let name = parts.next().ok_or_else(|| err("missing output name"))?;
                            n.add_port_out(name);
                        }
                        ".gate" => {
                            let kindkw = parts.next().ok_or_else(|| err("missing gate kind"))?;
                            let kind = GateKind::from_keyword(kindkw).ok_or_else(|| {
                                err(&format!("unknown gate kind `{kindkw}` (line {lineno})"))
                            })?;
                            let rest: Vec<&str> = parts.collect();
                            let arrow = rest
                                .iter()
                                .position(|&t| t == "->")
                                .ok_or_else(|| err("gate missing `->`"))?;
                            if arrow + 2 != rest.len() {
                                return Err(err("gate must have exactly one output"));
                            }
                            let inputs: Vec<usize> =
                                rest[..arrow].iter().map(|t| n.add_net(t)).collect();
                            if inputs.is_empty() {
                                return Err(err("gate has no inputs"));
                            }
                            let output = n.add_net(rest[arrow + 1]);
                            n.add_gate(kind, &inputs, output);
                        }
                        ".dff" => {
                            let mut fields: HashMap<&str, &str> = HashMap::new();
                            for p in parts {
                                let (k, v) =
                                    p.split_once('=').ok_or_else(|| err("bad dff field"))?;
                                fields.insert(k, v);
                            }
                            let get = |k: &str| {
                                fields
                                    .get(k)
                                    .copied()
                                    .ok_or_else(|| err(&format!("dff missing `{k}=`")))
                            };
                            let d = n.add_net(get("d")?);
                            let clk = n.add_net(get("clk")?);
                            let q = n.add_net(get("q")?);
                            n.add_dff(d, clk, q);
                        }
                        ".nmos" | ".pmos" => {
                            let kind = if keyword == ".nmos" {
                                MosKind::Nmos
                            } else {
                                MosKind::Pmos
                            };
                            let mut fields: HashMap<&str, &str> = HashMap::new();
                            for p in parts {
                                let (k, v) =
                                    p.split_once('=').ok_or_else(|| err("bad mos field"))?;
                                fields.insert(k, v);
                            }
                            let get = |k: &str| {
                                fields
                                    .get(k)
                                    .copied()
                                    .ok_or_else(|| err(&format!("mos missing `{k}=`")))
                            };
                            let gate = n.add_net(get("g")?);
                            let source = n.add_net(get("s")?);
                            let drain = n.add_net(get("d")?);
                            let width: f64 = fields
                                .get("w")
                                .map(|w| w.parse())
                                .transpose()
                                .map_err(|_| err("bad width"))?
                                .unwrap_or(1.0);
                            n.devices.push(Device::Mos {
                                kind,
                                gate,
                                source,
                                drain,
                                width,
                            });
                        }
                        other => {
                            return Err(err(&format!(
                                "unknown directive `{other}` (line {lineno})"
                            )))
                        }
                    }
                }
            }
        }
        netlist.ok_or_else(|| err("no .circuit directive"))
    }

    /// Parses the canonical byte form.
    ///
    /// # Errors
    ///
    /// Returns [`EdaError::Parse`] on malformed or non-UTF-8 input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Netlist, EdaError> {
        let text = std::str::from_utf8(bytes).map_err(|_| EdaError::Parse {
            what: "netlist".into(),
            detail: "not utf-8".into(),
        })?;
        Netlist::parse(text)
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} nets, {} gates, {} mos)",
            self.name,
            self.net_count(),
            self.gate_count(),
            self.mos_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nand_chain() -> Netlist {
        let mut n = Netlist::new("chain");
        let a = n.add_port_in("a");
        let b = n.add_port_in("b");
        let m = n.add_net("m");
        let y = n.add_port_out("y");
        n.add_gate(GateKind::Nand, &[a, b], m);
        n.add_gate(GateKind::Inv, &[m], y);
        n
    }

    #[test]
    fn build_and_query() {
        let n = nand_chain();
        assert_eq!(n.net_count(), 6, "gnd, vdd, a, b, m, y");
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.gate_count(), 2);
        assert!(n.is_gate_level());
        assert!(!n.is_transistor_level());
        assert_eq!(n.net_index("m"), Some(4));
        assert_eq!(n.net_name(4), "m");
    }

    #[test]
    fn duplicate_net_names_are_merged() {
        let mut n = Netlist::new("t");
        let a1 = n.add_net("a");
        let a2 = n.add_net("a");
        assert_eq!(a1, a2);
        let p = n.add_port_in("a");
        assert_eq!(p, a1);
        n.add_port_in("a");
        assert_eq!(n.inputs().len(), 1, "ports deduplicate");
    }

    #[test]
    fn text_round_trip_gate_level() {
        let n = nand_chain();
        let text = n.to_text();
        assert!(text.contains(".gate nand a b -> m"));
        let back = Netlist::parse(&text).expect("valid");
        assert_eq!(back, n);
    }

    #[test]
    fn text_round_trip_transistor_level() {
        let mut n = Netlist::new("inv");
        let a = n.add_port_in("a");
        let y = n.add_port_out("y");
        n.add_mos(MosKind::Pmos, a, Netlist::VDD, y);
        n.add_mos(MosKind::Nmos, a, Netlist::GND, y);
        let text = n.to_text();
        assert!(text.contains(".pmos g=a s=vdd d=y w=1"));
        let back = Netlist::parse(&text).expect("valid");
        assert_eq!(back, n);
        assert!(back.is_transistor_level());
    }

    #[test]
    fn parse_errors() {
        assert!(Netlist::parse("").is_err());
        assert!(Netlist::parse(".input a").is_err());
        assert!(Netlist::parse(".circuit c\n.gate frob a -> y").is_err());
        assert!(Netlist::parse(".circuit c\n.gate and a b y").is_err());
        assert!(Netlist::parse(".circuit c\n.gate and -> y").is_err());
        assert!(Netlist::parse(".circuit c\n.nmos g=a s=b").is_err());
        assert!(Netlist::parse(".circuit c\n.frob x").is_err());
        assert!(Netlist::from_bytes(&[0xff, 0xfe]).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let n = Netlist::parse(".circuit c\n# a comment\n\n.input a\n.end\n").expect("ok");
        assert_eq!(n.inputs().len(), 1);
    }

    #[test]
    fn dff_text_round_trip_and_counts() {
        let mut n = Netlist::new("seq");
        let d = n.add_port_in("d");
        let clk = n.add_port_in("clk");
        let q = n.add_port_out("q");
        n.add_dff(d, clk, q);
        assert_eq!(n.dff_count(), 1);
        assert!(n.is_sequential());
        assert!(n.is_gate_level(), "dffs live at gate level");
        assert!(!n.is_transistor_level());
        let back = Netlist::parse(&n.to_text()).expect("ok");
        assert_eq!(back, n);
        assert!(Netlist::parse(".circuit c\n.dff d=a clk=b").is_err());
    }

    #[test]
    fn gate_kind_keywords_round_trip() {
        for kind in [
            GateKind::Inv,
            GateKind::Buf,
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            assert_eq!(GateKind::from_keyword(kind.keyword()), Some(kind));
            assert!(kind.delay() >= 1);
        }
        assert_eq!(GateKind::from_keyword("flux"), None);
    }
}

//! The DX100 instruction set (paper Table 2): eight instructions covering
//! indirect accesses, streaming accesses, ALU operations, and range-loop
//! fusion, with a 192-bit encoding transmitted as three 64-bit MMIO stores.

use std::fmt;

use dx100_common::{Addr, AluOp, DType};

/// Identifier of a scratchpad tile (0..32).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileId(u8);

impl TileId {
    /// Maximum number of tiles addressable by the ISA.
    pub const MAX: u8 = 32;

    /// Creates a tile id.
    ///
    /// # Panics
    /// Panics if `id >= TileId::MAX`.
    pub const fn new(id: u8) -> Self {
        assert!(id < Self::MAX, "tile id out of range");
        TileId(id)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The tiles an instruction names in one operand role, held inline: at
/// most three, so listing them never allocates (the controller's
/// scoreboard probes them every cycle). Dereferences to a slice.
#[derive(Debug, Clone, Copy)]
pub struct TileList {
    tiles: [TileId; 3],
    len: u8,
}

impl TileList {
    fn of(tiles: &[TileId]) -> Self {
        let mut list = TileList {
            tiles: [TileId(0); 3],
            len: tiles.len() as u8,
        };
        list.tiles[..tiles.len()].copy_from_slice(tiles);
        list
    }

    fn push(&mut self, t: TileId) {
        self.tiles[self.len as usize] = t;
        self.len += 1;
    }
}

impl std::ops::Deref for TileList {
    type Target = [TileId];

    fn deref(&self) -> &[TileId] {
        &self.tiles[..self.len as usize]
    }
}

impl IntoIterator for TileList {
    type Item = TileId;
    type IntoIter = std::iter::Take<std::array::IntoIter<TileId, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.tiles.into_iter().take(self.len as usize)
    }
}

/// Identifier of a scalar register (0..64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegId(u8);

impl RegId {
    /// Number of physical scalar registers.
    ///
    /// Table 3 specifies 32 architectural registers for the default
    /// four-core group; the engine provisions 64 physical entries so that
    /// up to eight client cores (the Figure 14 scaling study) each get a
    /// private eight-register bank — register writes arrive over MMIO
    /// asynchronously to other cores' instruction pushes, so banks shared
    /// across cores would race. The wire format's 6-bit register fields
    /// cover all 64.
    pub const MAX: u8 = 64;

    /// Creates a register id.
    ///
    /// # Panics
    /// Panics if `id >= RegId::MAX`.
    pub const fn new(id: u8) -> Self {
        assert!(id < Self::MAX, "register id out of range");
        RegId(id)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A DX100 instruction (Table 2).
///
/// `base` operands are virtual byte addresses of array starts; index tiles
/// hold *element* indices scaled by the instruction's [`DType`] width.
/// The optional `tc` operand names a condition tile whose per-element 0/1
/// values gate execution of the corresponding lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instruction {
    /// Indirect load: `TD[i] = BASE[TS1[i]]` for each `i` with `TC[i] != 0`.
    Ild {
        /// Element type of the indirect array.
        dtype: DType,
        /// Base address of the indirect array.
        base: Addr,
        /// Destination tile for gathered values.
        td: TileId,
        /// Source tile of element indices.
        ts1: TileId,
        /// Optional condition tile.
        tc: Option<TileId>,
    },
    /// Indirect store: `BASE[TS1[i]] = TS2[i]` for gated lanes.
    Ist {
        /// Element type of the indirect array.
        dtype: DType,
        /// Base address of the indirect array.
        base: Addr,
        /// Source tile of element indices.
        ts1: TileId,
        /// Source tile of values to scatter.
        ts2: TileId,
        /// Optional condition tile.
        tc: Option<TileId>,
    },
    /// Indirect read-modify-write: `BASE[TS1[i]] = op(BASE[TS1[i]], TS2[i])`.
    ///
    /// Only associative/commutative `op`s are legal
    /// ([`AluOp::is_rmw_legal`]); DX100 reorders the updates.
    Irmw {
        /// Element type of the indirect array.
        dtype: DType,
        /// Update operation (must be associative and commutative).
        op: AluOp,
        /// Base address of the indirect array.
        base: Addr,
        /// Source tile of element indices.
        ts1: TileId,
        /// Source tile of update values.
        ts2: TileId,
        /// Optional condition tile.
        tc: Option<TileId>,
    },
    /// Streaming load: `TD[i] = BASE[R[rs1] + i * R[rs2]]` for `i` in
    /// `0..R[rs3]`.
    Sld {
        /// Element type of the streamed array.
        dtype: DType,
        /// Base address of the streamed array.
        base: Addr,
        /// Destination tile.
        td: TileId,
        /// Register holding the starting element offset.
        rs1: RegId,
        /// Register holding the element stride.
        rs2: RegId,
        /// Register holding the element count.
        rs3: RegId,
        /// Optional condition tile.
        tc: Option<TileId>,
    },
    /// Streaming store: `BASE[R[rs1] + i * R[rs2]] = TS[i]`.
    Sst {
        /// Element type of the streamed array.
        dtype: DType,
        /// Base address of the streamed array.
        base: Addr,
        /// Source tile of values.
        ts: TileId,
        /// Register holding the starting element offset.
        rs1: RegId,
        /// Register holding the element stride.
        rs2: RegId,
        /// Register holding the element count.
        rs3: RegId,
        /// Optional condition tile.
        tc: Option<TileId>,
    },
    /// Vector ALU: `TD[i] = op(TS1[i], TS2[i])`.
    Aluv {
        /// Lane data type.
        dtype: DType,
        /// Operation.
        op: AluOp,
        /// Destination tile.
        td: TileId,
        /// First source tile.
        ts1: TileId,
        /// Second source tile.
        ts2: TileId,
        /// Optional condition tile.
        tc: Option<TileId>,
    },
    /// Scalar ALU: `TD[i] = op(TS[i], R[rs])`.
    Alus {
        /// Lane data type.
        dtype: DType,
        /// Operation.
        op: AluOp,
        /// Destination tile.
        td: TileId,
        /// Source tile.
        ts: TileId,
        /// Scalar register operand.
        rs: RegId,
        /// Optional condition tile.
        tc: Option<TileId>,
    },
    /// Range fusion: given per-range bounds `TS1[k]..TS2[k]`, emit the
    /// flattened outer indices into `TD1` and inner induction values into
    /// `TD2`. `R[rs1]` bounds the total output length (tile capacity).
    Rng {
        /// Destination tile of outer-loop indices `k`.
        td1: TileId,
        /// Destination tile of inner induction values `j`.
        td2: TileId,
        /// Source tile of range lower bounds.
        ts1: TileId,
        /// Source tile of range upper bounds.
        ts2: TileId,
        /// Register bounding total fused output length.
        rs1: RegId,
        /// Optional condition tile gating whole ranges.
        tc: Option<TileId>,
    },
}

impl Instruction {
    /// Convenience constructor for an unconditional [`Instruction::Sld`].
    pub fn sld(dtype: DType, base: Addr, td: TileId, rs1: RegId, rs2: RegId, rs3: RegId) -> Self {
        Instruction::Sld {
            dtype,
            base,
            td,
            rs1,
            rs2,
            rs3,
            tc: None,
        }
    }

    /// Convenience constructor for an unconditional [`Instruction::Ild`].
    pub fn ild(dtype: DType, base: Addr, td: TileId, ts1: TileId) -> Self {
        Instruction::Ild {
            dtype,
            base,
            td,
            ts1,
            tc: None,
        }
    }

    /// Convenience constructor for an unconditional [`Instruction::Ist`].
    pub fn ist(dtype: DType, base: Addr, ts1: TileId, ts2: TileId) -> Self {
        Instruction::Ist {
            dtype,
            base,
            ts1,
            ts2,
            tc: None,
        }
    }

    /// Convenience constructor for an unconditional [`Instruction::Irmw`].
    pub fn irmw(dtype: DType, op: AluOp, base: Addr, ts1: TileId, ts2: TileId) -> Self {
        Instruction::Irmw {
            dtype,
            op,
            base,
            ts1,
            ts2,
            tc: None,
        }
    }

    /// Returns this instruction with its condition tile set.
    ///
    /// # Panics
    /// Panics on [`Instruction::Rng`]-unsupported combinations? No — all
    /// eight instructions accept a condition tile.
    pub fn with_condition(mut self, cond: TileId) -> Self {
        match &mut self {
            Instruction::Ild { tc, .. }
            | Instruction::Ist { tc, .. }
            | Instruction::Irmw { tc, .. }
            | Instruction::Sld { tc, .. }
            | Instruction::Sst { tc, .. }
            | Instruction::Aluv { tc, .. }
            | Instruction::Alus { tc, .. }
            | Instruction::Rng { tc, .. } => *tc = Some(cond),
        }
        self
    }

    /// Destination tiles written by this instruction.
    pub fn dest_tiles(&self) -> TileList {
        match *self {
            Instruction::Ild { td, .. }
            | Instruction::Sld { td, .. }
            | Instruction::Aluv { td, .. }
            | Instruction::Alus { td, .. } => TileList::of(&[td]),
            Instruction::Rng { td1, td2, .. } => TileList::of(&[td1, td2]),
            Instruction::Ist { .. } | Instruction::Irmw { .. } | Instruction::Sst { .. } => {
                TileList::of(&[])
            }
        }
    }

    /// Source tiles read by this instruction (including the condition tile).
    pub fn source_tiles(&self) -> TileList {
        let (mut v, tc) = match *self {
            Instruction::Ild { ts1, tc, .. } => (TileList::of(&[ts1]), tc),
            Instruction::Ist { ts1, ts2, tc, .. } | Instruction::Irmw { ts1, ts2, tc, .. } => {
                (TileList::of(&[ts1, ts2]), tc)
            }
            Instruction::Sld { tc, .. } => (TileList::of(&[]), tc),
            Instruction::Sst { ts, tc, .. } => (TileList::of(&[ts]), tc),
            Instruction::Aluv { ts1, ts2, tc, .. } => (TileList::of(&[ts1, ts2]), tc),
            Instruction::Alus { ts, tc, .. } => (TileList::of(&[ts]), tc),
            Instruction::Rng { ts1, ts2, tc, .. } => (TileList::of(&[ts1, ts2]), tc),
        };
        if let Some(c) = tc {
            v.push(c);
        }
        v
    }

    /// Validates ISA-level legality rules.
    ///
    /// # Errors
    /// Returns a description of the violation: non-associative/commutative
    /// RMW operations, integer-only ALU ops on float types, or a destination
    /// tile that is also a source.
    pub fn validate(&self) -> Result<(), IllegalInstruction> {
        if let Instruction::Irmw { op, .. } = self {
            if !op.is_rmw_legal() {
                return Err(IllegalInstruction::NonAssociativeRmw(*op));
            }
        }
        match self {
            Instruction::Irmw { op, dtype, .. }
            | Instruction::Aluv { op, dtype, .. }
            | Instruction::Alus { op, dtype, .. }
                if op.is_integer_only() && dtype.is_float() =>
            {
                return Err(IllegalInstruction::IntegerOpOnFloat(*op, *dtype));
            }
            _ => {}
        }
        for d in self.dest_tiles() {
            if self.source_tiles().contains(&d) {
                return Err(IllegalInstruction::DestIsSource(d));
            }
        }
        Ok(())
    }

    /// Encodes into the 192-bit wire format: three 64-bit words, transmitted
    /// as three memory-mapped stores (Section 3.5).
    pub fn encode(&self) -> [u64; 3] {
        let mut w0: u64 = 0;
        let mut base: Addr = 0;
        let put = |val: u64, lo: u32, bits: u32, word: &mut u64| {
            debug_assert!(val < (1 << bits));
            *word |= val << lo;
        };
        let enc_tc = |tc: Option<TileId>| -> u64 {
            match tc {
                Some(t) => 0b100_0000 | t.index() as u64,
                None => 0,
            }
        };
        match *self {
            Instruction::Ild {
                dtype,
                base: b,
                td,
                ts1,
                tc,
            } => {
                put(1, 0, 4, &mut w0);
                put(dtype.encode() as u64, 4, 3, &mut w0);
                put(td.index() as u64, 12, 6, &mut w0);
                put(ts1.index() as u64, 18, 6, &mut w0);
                put(enc_tc(tc), 30, 7, &mut w0);
                base = b;
            }
            Instruction::Ist {
                dtype,
                base: b,
                ts1,
                ts2,
                tc,
            } => {
                put(2, 0, 4, &mut w0);
                put(dtype.encode() as u64, 4, 3, &mut w0);
                put(ts1.index() as u64, 18, 6, &mut w0);
                put(ts2.index() as u64, 24, 6, &mut w0);
                put(enc_tc(tc), 30, 7, &mut w0);
                base = b;
            }
            Instruction::Irmw {
                dtype,
                op,
                base: b,
                ts1,
                ts2,
                tc,
            } => {
                put(3, 0, 4, &mut w0);
                put(dtype.encode() as u64, 4, 3, &mut w0);
                put(op.encode() as u64, 8, 4, &mut w0);
                put(ts1.index() as u64, 18, 6, &mut w0);
                put(ts2.index() as u64, 24, 6, &mut w0);
                put(enc_tc(tc), 30, 7, &mut w0);
                base = b;
            }
            Instruction::Sld {
                dtype,
                base: b,
                td,
                rs1,
                rs2,
                rs3,
                tc,
            } => {
                put(4, 0, 4, &mut w0);
                put(dtype.encode() as u64, 4, 3, &mut w0);
                put(td.index() as u64, 12, 6, &mut w0);
                put(enc_tc(tc), 30, 7, &mut w0);
                put(rs1.index() as u64, 37, 6, &mut w0);
                put(rs2.index() as u64, 43, 6, &mut w0);
                put(rs3.index() as u64, 49, 6, &mut w0);
                base = b;
            }
            Instruction::Sst {
                dtype,
                base: b,
                ts,
                rs1,
                rs2,
                rs3,
                tc,
            } => {
                put(5, 0, 4, &mut w0);
                put(dtype.encode() as u64, 4, 3, &mut w0);
                put(ts.index() as u64, 18, 6, &mut w0);
                put(enc_tc(tc), 30, 7, &mut w0);
                put(rs1.index() as u64, 37, 6, &mut w0);
                put(rs2.index() as u64, 43, 6, &mut w0);
                put(rs3.index() as u64, 49, 6, &mut w0);
                base = b;
            }
            Instruction::Aluv {
                dtype,
                op,
                td,
                ts1,
                ts2,
                tc,
            } => {
                put(6, 0, 4, &mut w0);
                put(dtype.encode() as u64, 4, 3, &mut w0);
                put(op.encode() as u64, 8, 4, &mut w0);
                put(td.index() as u64, 12, 6, &mut w0);
                put(ts1.index() as u64, 18, 6, &mut w0);
                put(ts2.index() as u64, 24, 6, &mut w0);
                put(enc_tc(tc), 30, 7, &mut w0);
            }
            Instruction::Alus {
                dtype,
                op,
                td,
                ts,
                rs,
                tc,
            } => {
                put(7, 0, 4, &mut w0);
                put(dtype.encode() as u64, 4, 3, &mut w0);
                put(op.encode() as u64, 8, 4, &mut w0);
                put(td.index() as u64, 12, 6, &mut w0);
                put(ts.index() as u64, 18, 6, &mut w0);
                put(enc_tc(tc), 30, 7, &mut w0);
                put(rs.index() as u64, 37, 6, &mut w0);
            }
            Instruction::Rng {
                td1,
                td2,
                ts1,
                ts2,
                rs1,
                tc,
            } => {
                put(8, 0, 4, &mut w0);
                put(td1.index() as u64, 12, 6, &mut w0);
                put(ts1.index() as u64, 18, 6, &mut w0);
                put(ts2.index() as u64, 24, 6, &mut w0);
                put(enc_tc(tc), 30, 7, &mut w0);
                put(rs1.index() as u64, 37, 6, &mut w0);
                put(td2.index() as u64, 55, 6, &mut w0);
            }
        }
        [w0, base, 0]
    }

    /// Decodes the 192-bit wire format.
    ///
    /// # Errors
    /// Returns [`IllegalInstruction::BadEncoding`] for unknown opcodes or
    /// out-of-range fields.
    pub fn decode(words: [u64; 3]) -> Result<Self, IllegalInstruction> {
        let w0 = words[0];
        let base = words[1];
        let get = |lo: u32, bits: u32| -> u64 { (w0 >> lo) & ((1 << bits) - 1) };
        let tile = |lo: u32| -> Result<TileId, IllegalInstruction> {
            let v = get(lo, 6) as u8;
            if v < TileId::MAX {
                Ok(TileId::new(v))
            } else {
                Err(IllegalInstruction::BadEncoding)
            }
        };
        let reg = |lo: u32| -> Result<RegId, IllegalInstruction> {
            let v = get(lo, 6) as u8;
            if v < RegId::MAX {
                Ok(RegId::new(v))
            } else {
                Err(IllegalInstruction::BadEncoding)
            }
        };
        let tc = if get(36, 1) == 1 {
            Some(tile(30)?)
        } else {
            None
        };
        let dtype = DType::decode(get(4, 3) as u8).ok_or(IllegalInstruction::BadEncoding)?;
        let op = AluOp::decode(get(8, 4) as u8);
        let instr = match get(0, 4) {
            1 => Instruction::Ild {
                dtype,
                base,
                td: tile(12)?,
                ts1: tile(18)?,
                tc,
            },
            2 => Instruction::Ist {
                dtype,
                base,
                ts1: tile(18)?,
                ts2: tile(24)?,
                tc,
            },
            3 => Instruction::Irmw {
                dtype,
                op: op.ok_or(IllegalInstruction::BadEncoding)?,
                base,
                ts1: tile(18)?,
                ts2: tile(24)?,
                tc,
            },
            4 => Instruction::Sld {
                dtype,
                base,
                td: tile(12)?,
                rs1: reg(37)?,
                rs2: reg(43)?,
                rs3: reg(49)?,
                tc,
            },
            5 => Instruction::Sst {
                dtype,
                base,
                ts: tile(18)?,
                rs1: reg(37)?,
                rs2: reg(43)?,
                rs3: reg(49)?,
                tc,
            },
            6 => Instruction::Aluv {
                dtype,
                op: op.ok_or(IllegalInstruction::BadEncoding)?,
                td: tile(12)?,
                ts1: tile(18)?,
                ts2: tile(24)?,
                tc,
            },
            7 => Instruction::Alus {
                dtype,
                op: op.ok_or(IllegalInstruction::BadEncoding)?,
                td: tile(12)?,
                ts: tile(18)?,
                rs: reg(37)?,
                tc,
            },
            8 => Instruction::Rng {
                td1: tile(12)?,
                td2: tile(55)?,
                ts1: tile(18)?,
                ts2: tile(24)?,
                rs1: reg(37)?,
                tc,
            },
            _ => return Err(IllegalInstruction::BadEncoding),
        };
        Ok(instr)
    }
}

/// ISA-level legality violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IllegalInstruction {
    /// IRMW with an operation the hardware cannot reorder.
    NonAssociativeRmw(AluOp),
    /// Bitwise/shift operation applied to a float type.
    IntegerOpOnFloat(AluOp, DType),
    /// A destination tile also appears as a source.
    DestIsSource(TileId),
    /// Undecodable wire format.
    BadEncoding,
}

impl fmt::Display for IllegalInstruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IllegalInstruction::NonAssociativeRmw(op) => {
                write!(f, "IRMW requires an associative/commutative op, got {op}")
            }
            IllegalInstruction::IntegerOpOnFloat(op, dt) => {
                write!(f, "integer-only op {op} applied to float type {dt}")
            }
            IllegalInstruction::DestIsSource(t) => {
                write!(f, "destination tile {t} also appears as a source")
            }
            IllegalInstruction::BadEncoding => write!(f, "undecodable instruction encoding"),
        }
    }
}

impl std::error::Error for IllegalInstruction {}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_instructions() -> Vec<Instruction> {
        let t = |i| TileId::new(i);
        let r = |i| RegId::new(i);
        vec![
            Instruction::ild(DType::U32, 0x1000, t(0), t(1)),
            Instruction::ild(DType::F64, 0x00de_adbe_ef00, t(2), t(3)).with_condition(t(4)),
            Instruction::ist(DType::I32, 0x2000, t(5), t(6)),
            Instruction::irmw(DType::F32, AluOp::Add, 0x3000, t(7), t(8)).with_condition(t(9)),
            Instruction::sld(DType::U64, 0x4000, t(10), r(0), r(1), r(2)),
            Instruction::Sst {
                dtype: DType::U32,
                base: 0x5000,
                ts: t(11),
                rs1: r(3),
                rs2: r(4),
                rs3: r(5),
                tc: Some(t(12)),
            },
            Instruction::Aluv {
                dtype: DType::I64,
                op: AluOp::Max,
                td: t(13),
                ts1: t(14),
                ts2: t(15),
                tc: None,
            },
            Instruction::Alus {
                dtype: DType::U32,
                op: AluOp::Shr,
                td: t(16),
                ts: t(17),
                rs: r(6),
                tc: Some(t(18)),
            },
            Instruction::Rng {
                td1: t(19),
                td2: t(20),
                ts1: t(21),
                ts2: t(22),
                rs1: r(7),
                tc: None,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trips_all_instructions() {
        for instr in all_instructions() {
            let words = instr.encode();
            let back = Instruction::decode(words).unwrap();
            assert_eq!(back, instr, "{instr:?}");
        }
    }

    #[test]
    fn bad_opcode_rejected() {
        assert_eq!(
            Instruction::decode([0, 0, 0]),
            Err(IllegalInstruction::BadEncoding)
        );
        assert_eq!(
            Instruction::decode([15, 0, 0]),
            Err(IllegalInstruction::BadEncoding)
        );
    }

    #[test]
    fn rmw_legality_enforced() {
        let bad = Instruction::irmw(DType::U32, AluOp::Sub, 0, TileId::new(0), TileId::new(1));
        assert_eq!(
            bad.validate(),
            Err(IllegalInstruction::NonAssociativeRmw(AluOp::Sub))
        );
        let good = Instruction::irmw(DType::U32, AluOp::Add, 0, TileId::new(0), TileId::new(1));
        assert!(good.validate().is_ok());
    }

    #[test]
    fn integer_op_on_float_rejected() {
        let bad = Instruction::Aluv {
            dtype: DType::F32,
            op: AluOp::And,
            td: TileId::new(0),
            ts1: TileId::new(1),
            ts2: TileId::new(2),
            tc: None,
        };
        assert!(matches!(
            bad.validate(),
            Err(IllegalInstruction::IntegerOpOnFloat(AluOp::And, DType::F32))
        ));
    }

    #[test]
    fn dest_equal_source_rejected() {
        let bad = Instruction::ild(DType::U32, 0, TileId::new(3), TileId::new(3));
        assert_eq!(
            bad.validate(),
            Err(IllegalInstruction::DestIsSource(TileId::new(3)))
        );
    }

    #[test]
    fn source_and_dest_listing() {
        let i = Instruction::irmw(DType::U32, AluOp::Add, 0, TileId::new(1), TileId::new(2))
            .with_condition(TileId::new(3));
        assert!(i.dest_tiles().is_empty());
        assert_eq!(
            i.source_tiles()[..],
            [TileId::new(1), TileId::new(2), TileId::new(3)]
        );
        let r = Instruction::Rng {
            td1: TileId::new(4),
            td2: TileId::new(5),
            ts1: TileId::new(6),
            ts2: TileId::new(7),
            rs1: RegId::new(0),
            tc: None,
        };
        assert_eq!(r.dest_tiles()[..], [TileId::new(4), TileId::new(5)]);
        assert_eq!(
            r.dest_tiles().into_iter().collect::<Vec<_>>(),
            [TileId::new(4), TileId::new(5)]
        );
    }

    #[test]
    #[should_panic(expected = "tile id out of range")]
    fn tile_id_range_checked() {
        let _ = TileId::new(32);
    }

    #[test]
    fn decode_rejects_out_of_range_condition_tile() {
        // A set condition-present bit (36) with a 6-bit tile field beyond
        // TileId::MAX must return BadEncoding, never panic (regression:
        // the tc field was decoded without the range check).
        let w0 = 1u64 | (63 << 30) | (1 << 36); // ILD, tc = t63
        assert_eq!(
            Instruction::decode([w0, 0x1000, 0]),
            Err(IllegalInstruction::BadEncoding)
        );
    }
}

//! Core vocabulary types: time, addresses, data types, ALU operations.

use std::fmt;

/// Simulation time in CPU clock cycles (3.2 GHz in the paper's Table 3).
pub type Cycle = u64;

/// A byte address in the simulated physical/virtual address space.
pub type Addr = u64;

/// Identifier of a CPU core.
pub type CoreId = usize;

/// Unique identifier of an in-flight memory request.
pub type ReqId = u64;

/// Width of a cache line in bytes. All caches and DRAM bursts in the paper's
/// configuration use 64-byte lines.
pub const CACHE_LINE_BYTES: u64 = 64;

/// `log2(CACHE_LINE_BYTES)`.
pub const CACHE_LINE_SHIFT: u32 = 6;

/// A cache-line-aligned address, stored in units of cache lines.
///
/// Newtype so the type system distinguishes line numbers from byte addresses
/// (`C-NEWTYPE`): mixing the two is the classic off-by-`<<6` bug in memory
/// simulators.
///
/// ```
/// use dx100_common::{Addr, LineAddr};
/// let byte: Addr = 0x1234;
/// let line = LineAddr::containing(byte);
/// assert_eq!(line.base(), 0x1200);
/// assert_eq!(line.offset_of(byte), 0x34);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The line containing byte address `addr`.
    #[inline]
    pub fn containing(addr: Addr) -> Self {
        LineAddr(addr >> CACHE_LINE_SHIFT)
    }

    /// Byte address of the first byte of this line.
    #[inline]
    pub fn base(self) -> Addr {
        self.0 << CACHE_LINE_SHIFT
    }

    /// Byte offset of `addr` within this line.
    ///
    /// # Panics
    /// Panics in debug builds if `addr` is not inside this line.
    #[inline]
    pub fn offset_of(self, addr: Addr) -> u64 {
        debug_assert_eq!(LineAddr::containing(addr), self);
        addr & (CACHE_LINE_BYTES - 1)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {:#x}", self.base())
    }
}

/// Data types supported by the DX100 ISA (`DTYPE` operand, paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// Unsigned 32-bit integer.
    #[default]
    U32,
    /// Signed 32-bit integer.
    I32,
    /// IEEE-754 single-precision float.
    F32,
    /// Unsigned 64-bit integer.
    U64,
    /// Signed 64-bit integer.
    I64,
    /// IEEE-754 double-precision float.
    F64,
}

impl DType {
    /// Size of one element in bytes (4 for the 32-bit types, 8 for 64-bit).
    #[inline]
    pub fn size_bytes(self) -> u64 {
        match self {
            DType::U32 | DType::I32 | DType::F32 => 4,
            DType::U64 | DType::I64 | DType::F64 => 8,
        }
    }

    /// All data types, in the order used by the ISA encoding.
    pub const ALL: [DType; 6] = [
        DType::U32,
        DType::I32,
        DType::F32,
        DType::U64,
        DType::I64,
        DType::F64,
    ];

    /// Encoding used in the 192-bit instruction format.
    #[inline]
    pub fn encode(self) -> u8 {
        match self {
            DType::U32 => 0,
            DType::I32 => 1,
            DType::F32 => 2,
            DType::U64 => 3,
            DType::I64 => 4,
            DType::F64 => 5,
        }
    }

    /// Inverse of [`DType::encode`]. Returns `None` for invalid encodings.
    #[inline]
    pub fn decode(bits: u8) -> Option<Self> {
        DType::ALL.get(bits as usize).copied()
    }

    /// Whether the type is a floating-point type.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, DType::F32 | DType::F64)
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DType::U32 => "u32",
            DType::I32 => "i32",
            DType::F32 => "f32",
            DType::U64 => "u64",
            DType::I64 => "i64",
            DType::F64 => "f64",
        };
        f.write_str(s)
    }
}

/// ALU operations supported by the DX100 ISA (`OP` operand, paper Table 2).
///
/// The comparison operators produce a boolean condition value (0 or 1) usable
/// as a condition tile; the arithmetic/bitwise operators produce values of the
/// instruction's [`DType`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (wrapping for integers).
    Add,
    /// Subtraction (wrapping for integers).
    Sub,
    /// Multiplication (wrapping for integers).
    Mul,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise AND (integer types only).
    And,
    /// Bitwise OR (integer types only).
    Or,
    /// Bitwise XOR (integer types only).
    Xor,
    /// Logical shift right (integer types only).
    Shr,
    /// Shift left (integer types only).
    Shl,
    /// Less-than comparison, result 0/1.
    Lt,
    /// Less-or-equal comparison, result 0/1.
    Le,
    /// Greater-than comparison, result 0/1.
    Gt,
    /// Greater-or-equal comparison, result 0/1.
    Ge,
    /// Equality comparison, result 0/1.
    Eq,
}

impl AluOp {
    /// All operations in ISA encoding order.
    pub const ALL: [AluOp; 15] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Min,
        AluOp::Max,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shr,
        AluOp::Shl,
        AluOp::Lt,
        AluOp::Le,
        AluOp::Gt,
        AluOp::Ge,
        AluOp::Eq,
    ];

    /// Encoding used in the 192-bit instruction format.
    #[inline]
    pub fn encode(self) -> u8 {
        AluOp::ALL.iter().position(|&op| op == self).unwrap() as u8
    }

    /// Inverse of [`AluOp::encode`]. Returns `None` for invalid encodings.
    #[inline]
    pub fn decode(bits: u8) -> Option<Self> {
        AluOp::ALL.get(bits as usize).copied()
    }

    /// Whether the operation is associative and commutative, and therefore
    /// legal for `IRMW` instructions, whose hardware reorders the updates
    /// (paper Section 3.1: "DX100 only supports a subset of associative and
    /// commutative operations, such as ADD, MAX, and MIN for the IRMW
    /// instructions").
    ///
    /// Floating-point `Add` is *not* strictly associative, but the paper (and
    /// every scatter-add accelerator) accepts reordered FP accumulation; the
    /// functional model therefore mirrors hardware ordering so tests can still
    /// compare bit-exactly.
    #[inline]
    pub fn is_rmw_legal(self) -> bool {
        matches!(
            self,
            AluOp::Add | AluOp::Min | AluOp::Max | AluOp::And | AluOp::Or | AluOp::Xor
        )
    }

    /// Whether the operation only makes sense for integer types.
    #[inline]
    pub fn is_integer_only(self) -> bool {
        matches!(
            self,
            AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Shr | AluOp::Shl
        )
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Min => "min",
            AluOp::Max => "max",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shr => "shr",
            AluOp::Shl => "shl",
            AluOp::Lt => "lt",
            AluOp::Le => "le",
            AluOp::Gt => "gt",
            AluOp::Ge => "ge",
            AluOp::Eq => "eq",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_addr_round_trips() {
        for addr in [0u64, 63, 64, 65, 0xdead_beef] {
            let line = LineAddr::containing(addr);
            assert!(line.base() <= addr);
            assert!(addr < line.base() + CACHE_LINE_BYTES);
            assert_eq!(line.base() + line.offset_of(addr), addr);
        }
    }

    #[test]
    fn dtype_encoding_round_trips() {
        for dt in DType::ALL {
            assert_eq!(DType::decode(dt.encode()), Some(dt));
        }
        assert_eq!(DType::decode(200), None);
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::U32.size_bytes(), 4);
        assert_eq!(DType::F64.size_bytes(), 8);
        assert!(DType::F32.is_float());
        assert!(!DType::I64.is_float());
    }

    #[test]
    fn aluop_encoding_round_trips() {
        for op in AluOp::ALL {
            assert_eq!(AluOp::decode(op.encode()), Some(op));
        }
        assert_eq!(AluOp::decode(99), None);
    }

    #[test]
    fn rmw_legality_matches_paper() {
        // Paper: ADD, MAX, MIN (plus other assoc/comm bitwise ops) are legal.
        assert!(AluOp::Add.is_rmw_legal());
        assert!(AluOp::Min.is_rmw_legal());
        assert!(AluOp::Max.is_rmw_legal());
        // Non-associative/commutative ops are not.
        assert!(!AluOp::Sub.is_rmw_legal());
        assert!(!AluOp::Shl.is_rmw_legal());
        assert!(!AluOp::Lt.is_rmw_legal());
    }
}

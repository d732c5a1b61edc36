//! The [`Record`] trait and the concrete record types used throughout Bonsai.

use core::fmt;

/// A fixed-width sortable record, as laid out in off-chip memory.
///
/// The Bonsai datapath (§II, §V of the paper) treats records as opaque
/// fixed-width tuples ordered by a sort key. One value — the all-zero
/// *terminal record* — is reserved to delimit sorted runs inside the merge
/// tree (§V-B); data fed into the datapath must therefore never contain
/// the terminal value. The sort engines strip terminal-valued input
/// records before the datapath and put them back in front of the output;
/// [`Record::sanitize`] instead remaps the value, for code that feeds the
/// datapath directly.
///
/// The `Ord` implementation of a `Record` must order records by
/// [`Record::key`] first (ties may be broken arbitrarily but must be
/// consistent), and the terminal record must compare strictly less than
/// every non-terminal record so it naturally drains first out of a merger.
///
/// # Example
///
/// ```
/// use bonsai_records::{Record, U64Rec};
///
/// let rec = U64Rec::new(42);
/// assert_eq!(rec.key(), 42);
/// assert!(!rec.is_terminal());
/// assert!(U64Rec::TERMINAL < rec);
/// ```
pub trait Record:
    Copy + Clone + Eq + Ord + core::hash::Hash + Send + Sync + fmt::Debug + 'static
{
    /// The sort key extracted from the record.
    type Key: Ord + Copy + fmt::Debug;

    /// Record width in bytes as laid out in off-chip memory.
    ///
    /// This is the `r` parameter of the paper's performance model
    /// (Table II): all bandwidth and capacity math is in units of
    /// `WIDTH_BYTES` per record.
    const WIDTH_BYTES: usize;

    /// The reserved all-zero terminal record (§V-B).
    const TERMINAL: Self;

    /// The maximum representable record, used to pad partial tuples fed
    /// into bitonic networks.
    const MAX: Self;

    /// Returns this record's sort key.
    fn key(&self) -> Self::Key;

    /// Returns `true` if this is the reserved terminal record.
    fn is_terminal(&self) -> bool {
        *self == Self::TERMINAL
    }

    /// Maps the reserved terminal value to the smallest legal record so
    /// that arbitrary input data can be safely fed through the datapath.
    ///
    /// The hardware reserves the zero record (§V-B: "Although we reserve
    /// zero for the terminal record, any other value may be used"); data
    /// sources are expected to avoid it. `sanitize` is the software
    /// equivalent of that contract.
    fn sanitize(self) -> Self;
}

macro_rules! uint_record {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $width:expr) => {
        $(#[$doc])*
        #[derive(
            Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(pub $inner);

        impl $name {
            /// Creates a new record from its raw integer representation.
            #[inline]
            pub const fn new(value: $inner) -> Self {
                Self(value)
            }

            /// Returns the raw integer representation.
            #[inline]
            pub const fn into_inner(self) -> $inner {
                self.0
            }
        }

        impl Record for $name {
            type Key = $inner;
            const WIDTH_BYTES: usize = $width;
            const TERMINAL: Self = Self(0);
            const MAX: Self = Self(<$inner>::MAX);

            #[inline]
            fn key(&self) -> $inner {
                self.0
            }

            #[inline]
            fn sanitize(self) -> Self {
                if self.0 == 0 {
                    Self(1)
                } else {
                    self
                }
            }
        }

        impl From<$inner> for $name {
            #[inline]
            fn from(value: $inner) -> Self {
                Self(value)
            }
        }

        impl From<$name> for $inner {
            #[inline]
            fn from(rec: $name) -> $inner {
                rec.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }
    };
}

uint_record!(
    /// A 32-bit record: the paper's primary benchmark record ("32-bit
    /// integers generated uniformly at random", §VI-A).
    U32Rec,
    u32,
    4
);

uint_record!(
    /// A 64-bit record keyed by its full value.
    U64Rec,
    u64,
    8
);

uint_record!(
    /// A 128-bit record keyed by its full value (the "128-bit records" of
    /// Table VI).
    U128Rec,
    u128,
    16
);

/// A 128-bit key/value record: 64-bit sort key plus 64-bit payload.
///
/// Ordered by key, then payload (so `Ord` is total and merging is
/// deterministic).
///
/// # Example
///
/// ```
/// use bonsai_records::{KvRec, Record};
///
/// let a = KvRec::new(1, 99);
/// let b = KvRec::new(2, 0);
/// assert!(a < b);
/// assert_eq!(a.key(), 1);
/// assert_eq!(a.value(), 99);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct KvRec {
    key: u64,
    value: u64,
}

impl KvRec {
    /// Creates a key/value record.
    #[inline]
    pub const fn new(key: u64, value: u64) -> Self {
        Self { key, value }
    }

    /// Returns the payload value.
    #[inline]
    pub const fn value(&self) -> u64 {
        self.value
    }
}

impl Record for KvRec {
    type Key = u64;
    const WIDTH_BYTES: usize = 16;
    const TERMINAL: Self = Self { key: 0, value: 0 };
    const MAX: Self = Self {
        key: u64::MAX,
        value: u64::MAX,
    };

    #[inline]
    fn key(&self) -> u64 {
        self.key
    }

    #[inline]
    fn sanitize(self) -> Self {
        if self == Self::TERMINAL {
            Self { key: 0, value: 1 }
        } else {
            self
        }
    }
}

/// The packed 16-byte gensort record of §VI-A.
///
/// The paper benchmarks Jim Gray's sort-benchmark records (100 bytes:
/// 10-byte key, 90-byte value) by hashing the 90-byte value down to a
/// 6-byte index and feeding the resulting `10 + 6 = 16` byte record into a
/// 16-byte AMT sorter. `Packed16` is that 16-byte record: the 80-bit key
/// occupies the most significant bits so that plain integer comparison
/// orders records by key first and index second.
///
/// # Example
///
/// ```
/// use bonsai_records::{Packed16, Record};
///
/// let rec = Packed16::from_parts(0xAABB, 7);
/// assert_eq!(rec.key(), 0xAABB);
/// assert_eq!(rec.index(), 7);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Packed16(u128);

impl Packed16 {
    /// Number of bits in the packed index (6 bytes).
    pub const INDEX_BITS: u32 = 48;
    /// Number of bits in the key (10 bytes).
    pub const KEY_BITS: u32 = 80;

    /// Builds a packed record from an 80-bit key and a 48-bit index.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not fit in 80 bits or `index` in 48 bits.
    #[inline]
    pub fn from_parts(key: u128, index: u64) -> Self {
        assert!(key < (1u128 << Self::KEY_BITS), "key exceeds 80 bits");
        assert!(index < (1u64 << Self::INDEX_BITS), "index exceeds 48 bits");
        Self((key << Self::INDEX_BITS) | u128::from(index))
    }

    /// Returns the raw 128-bit representation.
    #[inline]
    pub const fn into_inner(self) -> u128 {
        self.0
    }

    /// Returns the 80-bit sort key.
    #[inline]
    pub const fn key_bits(&self) -> u128 {
        self.0 >> Self::INDEX_BITS
    }

    /// Returns the 48-bit hashed value index.
    #[inline]
    pub const fn index(&self) -> u64 {
        (self.0 & ((1u128 << Self::INDEX_BITS) - 1)) as u64
    }
}

impl Record for Packed16 {
    type Key = u128;
    const WIDTH_BYTES: usize = 16;
    const TERMINAL: Self = Self(0);
    const MAX: Self = Self(u128::MAX);

    #[inline]
    fn key(&self) -> u128 {
        self.key_bits()
    }

    #[inline]
    fn sanitize(self) -> Self {
        if self.0 == 0 {
            Self(1)
        } else {
            self
        }
    }
}

impl fmt::Debug for Packed16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Packed16 {{ key: {:#x}, index: {} }}",
            self.key_bits(),
            self.index()
        )
    }
}

macro_rules! wide_record {
    ($(#[$doc:meta])* $name:ident, $limbs:expr, $width:expr) => {
        $(#[$doc])*
        #[derive(
            Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug,
        )]
        pub struct $name(pub [u64; $limbs]);

        impl $name {
            /// Creates a wide record from its big-endian limb representation
            /// (limb 0 is the most significant and dominates ordering).
            #[inline]
            pub const fn new(limbs: [u64; $limbs]) -> Self {
                Self(limbs)
            }

            /// Returns the limb representation.
            #[inline]
            pub const fn into_inner(self) -> [u64; $limbs] {
                self.0
            }
        }

        impl Record for $name {
            type Key = [u64; $limbs];
            const WIDTH_BYTES: usize = $width;
            const TERMINAL: Self = Self([0; $limbs]);
            const MAX: Self = Self([u64::MAX; $limbs]);

            #[inline]
            fn key(&self) -> [u64; $limbs] {
                self.0
            }

            #[inline]
            fn sanitize(self) -> Self {
                if self == Self::TERMINAL {
                    let mut limbs = [0u64; $limbs];
                    limbs[$limbs - 1] = 1;
                    Self(limbs)
                } else {
                    self
                }
            }
        }
    };
}

wide_record!(
    /// A 256-bit record (four 64-bit limbs, lexicographically ordered).
    ///
    /// The AMT architecture supports "any key and value width up to 512
    /// bits without any resource utilization overhead" (§II); this type
    /// exercises the wide-record path.
    W256Rec,
    4,
    32
);

wide_record!(
    /// A 512-bit record (eight 64-bit limbs, lexicographically ordered) —
    /// the widest record the AMT supports natively (§II).
    W512Rec,
    8,
    64
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_ordering_matches_key() {
        let a = U32Rec::new(3);
        let b = U32Rec::new(5);
        assert!(a < b);
        assert_eq!(a.key(), 3);
    }

    #[test]
    fn terminal_is_minimum_for_uint_records() {
        assert!(U32Rec::TERMINAL <= U32Rec::new(0));
        assert!(U32Rec::TERMINAL < U32Rec::new(1));
        assert!(U64Rec::TERMINAL < U64Rec::new(1));
        assert!(U128Rec::TERMINAL < U128Rec::new(1));
    }

    #[test]
    fn sanitize_removes_terminal_value() {
        assert!(!U32Rec::new(0).sanitize().is_terminal());
        assert!(!KvRec::new(0, 0).sanitize().is_terminal());
        assert!(!Packed16::from_parts(0, 0).sanitize().is_terminal());
        assert!(!W256Rec::new([0; 4]).sanitize().is_terminal());
        assert_eq!(U32Rec::new(9).sanitize(), U32Rec::new(9));
    }

    #[test]
    fn sanitize_preserves_order_of_nonterminals() {
        let a = KvRec::new(1, 2).sanitize();
        let b = KvRec::new(1, 3).sanitize();
        assert!(a < b);
    }

    #[test]
    fn kv_orders_by_key_then_value() {
        assert!(KvRec::new(1, 9) < KvRec::new(2, 0));
        assert!(KvRec::new(1, 1) < KvRec::new(1, 2));
        assert_eq!(KvRec::new(4, 4).value(), 4);
    }

    #[test]
    fn packed16_roundtrip() {
        let key = (1u128 << 79) | 0x1234;
        let idx = (1u64 << 47) | 0x99;
        let rec = Packed16::from_parts(key, idx);
        assert_eq!(rec.key(), key);
        assert_eq!(rec.index(), idx);
    }

    #[test]
    fn packed16_orders_by_key_first() {
        // A smaller key with a huge index must sort before a larger key.
        let small_key = Packed16::from_parts(10, (1 << 48) - 1);
        let large_key = Packed16::from_parts(11, 0);
        assert!(small_key < large_key);
    }

    #[test]
    #[should_panic(expected = "key exceeds 80 bits")]
    fn packed16_rejects_oversized_key() {
        let _ = Packed16::from_parts(1u128 << 80, 0);
    }

    #[test]
    #[should_panic(expected = "index exceeds 48 bits")]
    fn packed16_rejects_oversized_index() {
        let _ = Packed16::from_parts(0, 1u64 << 48);
    }

    #[test]
    fn wide_records_order_lexicographically() {
        let a = W256Rec::new([0, 0, 0, 5]);
        let b = W256Rec::new([0, 0, 1, 0]);
        assert!(a < b);
        let c = W512Rec::new([1, 0, 0, 0, 0, 0, 0, 0]);
        let d = W512Rec::new([0, u64::MAX, 0, 0, 0, 0, 0, 0]);
        assert!(d < c);
    }

    #[test]
    fn widths_match_declared_layout() {
        assert_eq!(U32Rec::WIDTH_BYTES, 4);
        assert_eq!(U64Rec::WIDTH_BYTES, 8);
        assert_eq!(U128Rec::WIDTH_BYTES, 16);
        assert_eq!(KvRec::WIDTH_BYTES, 16);
        assert_eq!(Packed16::WIDTH_BYTES, 16);
        assert_eq!(W256Rec::WIDTH_BYTES, 32);
        assert_eq!(W512Rec::WIDTH_BYTES, 64);
    }

    #[test]
    fn max_is_maximum() {
        assert!(U32Rec::new(u32::MAX - 1) < U32Rec::MAX);
        assert!(Packed16::from_parts((1 << 80) - 1, (1 << 48) - 1) <= Packed16::MAX);
    }

    #[test]
    fn records_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<U32Rec>();
        assert_send_sync::<U64Rec>();
        assert_send_sync::<U128Rec>();
        assert_send_sync::<KvRec>();
        assert_send_sync::<Packed16>();
        assert_send_sync::<W512Rec>();
    }
}

//! Plain-data element types that can travel through coarrays and
//! collectives, and the reduction operations defined on them.
//!
//! Everything crossing the fabric is explicit little-endian-free native
//! bytes produced by [`CoValue::store`] — no `unsafe` transmutes, no padding
//! leaks. The per-element copy is irrelevant next to modeled network time,
//! and in the real-threads fabric the byte loop compiles to a memcpy-like
//! loop for primitive types.

/// A value that can be shipped through segments: fixed size, plain data.
///
/// Implementations must be involutive: `load(store(x)) == x` (bitwise; NaN
/// payloads included).
pub trait CoValue: Copy + Send + Sync + 'static {
    /// Serialized size in bytes.
    const SIZE: usize;

    /// Serialize into `out` (exactly `SIZE` bytes).
    fn store(&self, out: &mut [u8]);

    /// Deserialize from `bytes` (exactly `SIZE` bytes).
    fn load(bytes: &[u8]) -> Self;
}

macro_rules! covalue_prim {
    ($($t:ty),*) => {$(
        impl CoValue for $t {
            const SIZE: usize = std::mem::size_of::<$t>();

            #[inline]
            fn store(&self, out: &mut [u8]) {
                out[..Self::SIZE].copy_from_slice(&self.to_ne_bytes());
            }

            #[inline]
            fn load(bytes: &[u8]) -> Self {
                <$t>::from_ne_bytes(bytes[..Self::SIZE].try_into().expect("size"))
            }
        }
    )*};
}

covalue_prim!(u8, i8, u16, i16, u32, i32, u64, i64, u128, i128, f32, f64);

impl<A: CoValue, B: CoValue> CoValue for (A, B) {
    const SIZE: usize = A::SIZE + B::SIZE;

    #[inline]
    fn store(&self, out: &mut [u8]) {
        self.0.store(&mut out[..A::SIZE]);
        self.1.store(&mut out[A::SIZE..A::SIZE + B::SIZE]);
    }

    #[inline]
    fn load(bytes: &[u8]) -> Self {
        (A::load(&bytes[..A::SIZE]), B::load(&bytes[A::SIZE..]))
    }
}

/// A fixed run of values travels as one element — what lets a derived type
/// carry one key for several values (HPL's pivot lanes).
impl<T: CoValue, const N: usize> CoValue for [T; N] {
    const SIZE: usize = N * T::SIZE;

    #[inline]
    fn store(&self, out: &mut [u8]) {
        for (i, v) in self.iter().enumerate() {
            v.store(&mut out[i * T::SIZE..(i + 1) * T::SIZE]);
        }
    }

    #[inline]
    fn load(bytes: &[u8]) -> Self {
        std::array::from_fn(|i| T::load(&bytes[i * T::SIZE..(i + 1) * T::SIZE]))
    }
}

/// Serialize a slice of values into a byte vector, reusing its capacity.
/// Every byte of the result is overwritten by `store`, so the length is
/// adjusted without a zero-refill — on the collectives' hot paths the same
/// buffer is reused call after call and this allocates (and memsets)
/// nothing in steady state.
pub fn slice_to_bytes<T: CoValue>(src: &[T], out: &mut Vec<u8>) {
    let n = src.len() * T::SIZE;
    if out.len() < n {
        out.resize(n, 0);
    } else {
        out.truncate(n);
    }
    for (i, v) in src.iter().enumerate() {
        v.store(&mut out[i * T::SIZE..(i + 1) * T::SIZE]);
    }
}

/// Deserialize bytes into an existing slice (lengths must match).
pub fn bytes_to_slice<T: CoValue>(bytes: &[u8], dst: &mut [T]) {
    assert_eq!(
        bytes.len(),
        dst.len() * T::SIZE,
        "byte/slice length mismatch"
    );
    for (i, v) in dst.iter_mut().enumerate() {
        *v = T::load(&bytes[i * T::SIZE..(i + 1) * T::SIZE]);
    }
}

/// Numeric element types supporting the CAF intrinsic reductions
/// (`co_sum`, `co_min`, `co_max`) plus product.
///
/// All operations must be commutative and associative up to the usual
/// floating-point caveats; the collectives are free to apply them in any
/// order (and the hierarchical algorithms genuinely do reorder).
pub trait CoNumeric: CoValue + PartialOrd {
    /// Addition (`co_sum`).
    fn co_add(a: Self, b: Self) -> Self;
    /// Multiplication.
    fn co_mul(a: Self, b: Self) -> Self;
    /// Minimum (`co_min`).
    fn co_min(a: Self, b: Self) -> Self;
    /// Maximum (`co_max`).
    fn co_max(a: Self, b: Self) -> Self;
}

macro_rules! conumeric_int {
    ($($t:ty),*) => {$(
        impl CoNumeric for $t {
            #[inline]
            fn co_add(a: Self, b: Self) -> Self { a.wrapping_add(b) }
            #[inline]
            fn co_mul(a: Self, b: Self) -> Self { a.wrapping_mul(b) }
            #[inline]
            fn co_min(a: Self, b: Self) -> Self { a.min(b) }
            #[inline]
            fn co_max(a: Self, b: Self) -> Self { a.max(b) }
        }
    )*};
}

conumeric_int!(u8, i8, u16, i16, u32, i32, u64, i64, u128, i128);

macro_rules! conumeric_float {
    ($($t:ty),*) => {$(
        impl CoNumeric for $t {
            #[inline]
            fn co_add(a: Self, b: Self) -> Self { a + b }
            #[inline]
            fn co_mul(a: Self, b: Self) -> Self { a * b }
            #[inline]
            fn co_min(a: Self, b: Self) -> Self { a.min(b) }
            #[inline]
            fn co_max(a: Self, b: Self) -> Self { a.max(b) }
        }
    )*};
}

conumeric_float!(f32, f64);

/// The intrinsic reduction operations, for the enum-driven API (the
/// closure-based `co_reduce_with` covers user-defined operations).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoOp {
    /// `co_sum`.
    Sum,
    /// Product.
    Prod,
    /// `co_min`.
    Min,
    /// `co_max`.
    Max,
}

impl CoOp {
    /// Apply the operation.
    #[inline]
    pub fn apply<T: CoNumeric>(self, a: T, b: T) -> T {
        match self {
            CoOp::Sum => T::co_add(a, b),
            CoOp::Prod => T::co_mul(a, b),
            CoOp::Min => T::co_min(a, b),
            CoOp::Max => T::co_max(a, b),
        }
    }

    /// The identity element for integer-like folds is not needed by the
    /// algorithms (they fold pairwise over actual contributions), but the
    /// name of the op is useful in reports.
    pub fn name(self) -> &'static str {
        match self {
            CoOp::Sum => "sum",
            CoOp::Prod => "prod",
            CoOp::Min => "min",
            CoOp::Max => "max",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut buf = [0u8; 8];
        42.5f64.store(&mut buf);
        assert_eq!(f64::load(&buf), 42.5);
        let mut buf4 = [0u8; 4];
        (-7i32).store(&mut buf4);
        assert_eq!(i32::load(&buf4), -7);
    }

    #[test]
    fn nan_payload_preserved() {
        let x = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut buf = [0u8; 8];
        x.store(&mut buf);
        assert_eq!(f64::load(&buf).to_bits(), x.to_bits());
    }

    #[test]
    fn tuple_roundtrip() {
        let v: (f64, u64) = (3.25, 17);
        let mut buf = [0u8; 16];
        v.store(&mut buf);
        assert_eq!(<(f64, u64)>::load(&buf), v);
        assert_eq!(<(f64, u64)>::SIZE, 16);
    }

    #[test]
    fn array_size_is_its_elements() {
        assert_eq!(<[f64; 8]>::SIZE, 64);
        assert_eq!(<[u16; 3]>::SIZE, 6);
        assert_eq!(<[u64; 0]>::SIZE, 0);
        // HPL's pivot lane: a 16 B key and eight values.
        assert_eq!(<((f64, u64), [f64; 8])>::SIZE, 80);
    }

    #[test]
    fn array_roundtrip_is_bit_for_bit() {
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let signalling = f64::from_bits(0x7ff0_0000_0000_0abc);
        let lane = (
            (-0.0f64, u64::MAX),
            [
                nan,
                1.5,
                -0.0,
                signalling,
                f64::MIN_POSITIVE / 2.0,
                0.0,
                f64::INFINITY,
                -3.0,
            ],
        );
        let mut buf = vec![0u8; 80];
        lane.store(&mut buf);
        let back = <((f64, u64), [f64; 8])>::load(&buf);
        let bits = |l: &((f64, u64), [f64; 8])| (l.0 .0.to_bits(), l.0 .1, l.1.map(f64::to_bits));
        assert_eq!(bits(&back), bits(&lane));
        // Arrays of arrays, and a slice of them through the byte helpers.
        let src = [[1u32, 2], [3, u32::MAX]];
        let mut bytes = Vec::new();
        slice_to_bytes(&src, &mut bytes);
        assert_eq!(bytes.len(), 16);
        let mut dst = [[0u32; 2]; 2];
        bytes_to_slice(&bytes, &mut dst);
        assert_eq!(dst, src);
    }

    #[test]
    fn slice_roundtrip() {
        let src = [1u32, 2, 3, 4000];
        let mut bytes = Vec::new();
        slice_to_bytes(&src, &mut bytes);
        assert_eq!(bytes.len(), 16);
        let mut dst = [0u32; 4];
        bytes_to_slice(&bytes, &mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn slice_length_checked() {
        let mut dst = [0u32; 2];
        bytes_to_slice(&[0u8; 9], &mut dst);
    }

    #[test]
    fn ops_behave() {
        assert_eq!(CoOp::Sum.apply(2i64, 3), 5);
        assert_eq!(CoOp::Prod.apply(2i64, 3), 6);
        assert_eq!(CoOp::Min.apply(2.5f64, 3.0), 2.5);
        assert_eq!(CoOp::Max.apply(2.5f64, 3.0), 3.0);
        assert_eq!(CoOp::Sum.apply(u8::MAX, 1), 0, "integer sum wraps");
    }

    #[test]
    fn op_names() {
        assert_eq!(CoOp::Sum.name(), "sum");
        assert_eq!(CoOp::Max.name(), "max");
    }
}

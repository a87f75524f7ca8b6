//! Value types and reduction operators.
//!
//! A sparse allreduce is parameterised by the *element type* travelling
//! through the network and the *associative, commutative operator* that
//! collapses duplicate indices. PageRank sums `f64` contributions;
//! connected components takes the `min` of candidate labels; HADI-style
//! diameter estimation `OR`s Flajolet–Martin bitstrings. The traits here
//! keep the protocol generic over all of those without boxing.

use std::fmt::Debug;

/// A fixed-width value that can be framed into network messages.
///
/// Implementations must round-trip exactly through `to_le_bytes` /
/// `from_le_bytes`; the protocol ships raw little-endian buffers.
pub trait Scalar: Copy + Send + Sync + Debug + PartialEq + Default + 'static {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Write the little-endian encoding into exactly `WIDTH` bytes
    /// (encoders size the whole section once, then fill it).
    fn write_le_slice(&self, out: &mut [u8]);
    /// Decode from exactly `WIDTH` bytes.
    fn read_le(bytes: &[u8]) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write_le_slice(&self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("scalar width"))
            }
        }
    )*};
}

impl_scalar!(f32, f64, u32, u64, i32, i64);

/// An associative, commutative reduction operator over `V` with an
/// identity element.
///
/// Associativity + commutativity are what let Kylix reduce in stages down
/// the butterfly and still produce the same totals as a flat reduction;
/// the property tests in `kylix` verify this end to end.
pub trait Reducer<V>: Copy + Send + Sync + 'static {
    /// The identity element (`0` for sum, `+inf` for min, …).
    fn identity(&self) -> V;
    /// Fold `b` into `a`.
    fn combine(&self, a: &mut V, b: V);
}

/// Sum reduction (the default for PageRank / SGD gradients).
#[derive(Debug, Clone, Copy, Default)]
pub struct SumReducer;

macro_rules! impl_sum {
    ($($t:ty => $zero:expr),*) => {$(
        impl Reducer<$t> for SumReducer {
            #[inline]
            fn identity(&self) -> $t { $zero }
            #[inline]
            fn combine(&self, a: &mut $t, b: $t) { *a += b; }
        }
    )*};
}
impl_sum!(f32 => 0.0, f64 => 0.0, u32 => 0, u64 => 0, i32 => 0, i64 => 0);

/// Minimum reduction (label propagation, shortest paths).
#[derive(Debug, Clone, Copy, Default)]
pub struct MinReducer;

macro_rules! impl_min {
    ($($t:ty => $id:expr),*) => {$(
        impl Reducer<$t> for MinReducer {
            #[inline]
            fn identity(&self) -> $t { $id }
            #[inline]
            fn combine(&self, a: &mut $t, b: $t) { if b < *a { *a = b; } }
        }
    )*};
}
impl_min!(f32 => f32::INFINITY, f64 => f64::INFINITY,
          u32 => u32::MAX, u64 => u64::MAX, i32 => i32::MAX, i64 => i64::MAX);

/// Maximum reduction.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxReducer;

macro_rules! impl_max {
    ($($t:ty => $id:expr),*) => {$(
        impl Reducer<$t> for MaxReducer {
            #[inline]
            fn identity(&self) -> $t { $id }
            #[inline]
            fn combine(&self, a: &mut $t, b: $t) { if b > *a { *a = b; } }
        }
    )*};
}
impl_max!(f32 => f32::NEG_INFINITY, f64 => f64::NEG_INFINITY,
          u32 => 0, u64 => 0, i32 => i32::MIN, i64 => i64::MIN);

/// Bitwise-OR reduction (Flajolet–Martin / HADI bitstrings).
#[derive(Debug, Clone, Copy, Default)]
pub struct BitOrReducer;

macro_rules! impl_or {
    ($($t:ty),*) => {$(
        impl Reducer<$t> for BitOrReducer {
            #[inline]
            fn identity(&self) -> $t { 0 }
            #[inline]
            fn combine(&self, a: &mut $t, b: $t) { *a |= b; }
        }
    )*};
}
impl_or!(u32, u64);

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<V: Scalar>(v: V) {
        let mut buf = vec![0u8; V::WIDTH];
        v.write_le_slice(&mut buf);
        assert_eq!(V::read_le(&buf), v);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(3.75f32);
        round_trip(-1.25e300f64);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-42i32);
        round_trip(i64::MIN);
    }

    #[test]
    fn sum_identity_and_combine() {
        let r = SumReducer;
        let mut a: f64 = r.identity();
        r.combine(&mut a, 2.0);
        r.combine(&mut a, 3.0);
        assert_eq!(a, 5.0);
    }

    #[test]
    fn min_max_identities_absorb() {
        let (mn, mx) = (MinReducer, MaxReducer);
        let mut a: u64 = Reducer::<u64>::identity(&mn);
        mn.combine(&mut a, 7);
        mn.combine(&mut a, 3);
        mn.combine(&mut a, 9);
        assert_eq!(a, 3);
        let mut b: i32 = Reducer::<i32>::identity(&mx);
        mx.combine(&mut b, -5);
        mx.combine(&mut b, 11);
        assert_eq!(b, 11);
    }

    #[test]
    fn bitor_unions_bits() {
        let r = BitOrReducer;
        let mut a: u64 = r.identity();
        r.combine(&mut a, 0b0011);
        r.combine(&mut a, 0b0110);
        assert_eq!(a, 0b0111);
    }

    #[test]
    fn reducers_are_commutative_and_associative() {
        let r = SumReducer;
        let vals = [1.5f64, -2.0, 7.25, 0.5];
        // (a+b)+c == a+(b+c), order-independent
        let mut left = r.identity();
        for v in vals {
            r.combine(&mut left, v);
        }
        let mut right = r.identity();
        for v in vals.iter().rev() {
            r.combine(&mut right, *v);
        }
        assert_eq!(left, right);
    }
}

//! The one JSON codec behind engine checkpoints and scheduler snapshots
//! (DESIGN.md §13).
//!
//! [`Codec`] pairs the canonical encoder of a type with its decoder, so
//! every member is written and read by the same impl. The primitives the
//! checkpoint state and the scheduler blobs are built from are covered
//! here; [`codec!`](crate::codec!) derives both directions for a struct
//! from its field list:
//!
//! ```
//! use hp_sim::codec::{decode, encode};
//!
//! hp_sim::codec! {
//!     #[derive(Debug, PartialEq)]
//!     struct Snapshot {
//!         tau_index: usize,
//!         last_peak: f64,
//!         blob: Option<String>,
//!     }
//! }
//!
//! let snap = Snapshot { tau_index: 1, last_peak: f64::INFINITY, blob: None };
//! let json = encode(&snap);
//! assert_eq!(json, r#"{"tau_index":1,"last_peak":"inf","blob":null}"#);
//! assert_eq!(decode::<Snapshot>(&json), Ok(snap));
//! ```
//!
//! The encoding is canonical — compact, members in field order, finite
//! floats in Rust's shortest round-trip `Display` form — so
//! decode→encode reproduces a document byte for byte and a digest over
//! it is stable. JSON has no literals for non-finite floats; they travel
//! as the strings `"inf"`, `"-inf"` and `"nan"`. Decoding finds object
//! members by name (member order in the input is immaterial) and every
//! failure names the member it stopped at.

use std::collections::VecDeque;
use std::fmt::Write as _;

use hp_floorplan::CoreId;
use hp_obs::json::{escape, parse};
use hp_power::DvfsLevel;
use hp_thermal::{NumericsStats, SolverStats};
use hp_workload::JobId;

pub use hp_obs::json::Json;

/// A value with exactly one JSON encoding, written by [`put`](Codec::put)
/// and read back by [`take`](Codec::take).
pub trait Codec: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn put(&self, out: &mut String);

    /// Decodes a value from `v`.
    ///
    /// # Errors
    ///
    /// A message naming the member `what` when `v` has the wrong shape.
    fn take(v: &Json, what: &str) -> Result<Self, String>;
}

/// The canonical encoding of `value`.
pub fn encode<T: Codec>(value: &T) -> String {
    let mut out = String::new();
    value.put(&mut out);
    out
}

/// Parses `src` and decodes it as a `T`.
///
/// # Errors
///
/// A message for malformed JSON or naming the first member of the
/// wrong shape.
pub fn decode<T: Codec>(src: &str) -> Result<T, String> {
    let doc = parse(src).map_err(|e| e.to_string())?;
    T::take(&doc, "snapshot")
}

/// The error for member `what` holding something other than `wanted`.
pub fn mismatch(what: &str, wanted: &str) -> String {
    format!("`{what}` is not {wanted}")
}

/// Decodes member `key` of the object `v`. A missing member is an error
/// (an absent optional value is an explicit `null`).
///
/// # Errors
///
/// A message naming `key` when it is missing or of the wrong shape.
pub fn member<T: Codec>(v: &Json, key: &str) -> Result<T, String> {
    match v.get(key) {
        Some(m) => T::take(m, key),
        None => Err(format!("`{key}` is missing")),
    }
}

/// `v` if it is an object.
///
/// # Errors
///
/// A message naming `what` otherwise.
pub fn object<'a>(v: &'a Json, what: &str) -> Result<&'a Json, String> {
    match v {
        Json::Obj(_) => Ok(v),
        _ => Err(mismatch(what, "an object")),
    }
}

/// The items of `v` if it is an array.
///
/// # Errors
///
/// A message naming `what` otherwise.
pub fn items<'a>(v: &'a Json, what: &str) -> Result<&'a [Json], String> {
    match v {
        Json::Arr(items) => Ok(items),
        _ => Err(mismatch(what, "an array")),
    }
}

fn put_seq<'a, T: Codec + 'a>(out: &mut String, seq: impl IntoIterator<Item = &'a T>) {
    out.push('[');
    for (i, x) in seq.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        x.put(out);
    }
    out.push(']');
}

fn take_seq<T: Codec, C: FromIterator<T>>(v: &Json, what: &str) -> Result<C, String> {
    items(v, what)?.iter().map(|x| T::take(x, what)).collect()
}

/// Implements [`Codec`] for a struct from one field list.
///
/// * `codec! { struct Name { a: A, b: B } }` declares the struct (with
///   its attributes and doc comments) and encodes it as an object whose
///   members follow the declaration.
/// * `codec!(Name { a, b })` does the same for a struct declared
///   elsewhere, `codec!(Name [a, b])` encodes it as an array in list
///   order and `codec!(Name(Inner))` encodes a newtype as its inner value.
///
/// The decoder must fill every field, so a field left off a list does
/// not compile.
#[macro_export]
macro_rules! codec {
    (
        $(#[$meta:meta])*
        $vis:vis struct $ty:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $ty {
            $($(#[$fmeta])* $fvis $field: $fty),+
        }
        $crate::codec!($ty { $($field),+ });
    };
    ($ty:ident ( $inner:ty )) => {
        impl $crate::codec::Codec for $ty {
            fn put(&self, out: &mut ::std::string::String) {
                $crate::codec::Codec::put(&self.0, out);
            }
            fn take(
                v: &$crate::codec::Json,
                what: &str,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                <$inner as $crate::codec::Codec>::take(v, what).map($ty)
            }
        }
    };
    ($ty:ident { $first:ident $(, $rest:ident)* $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            fn put(&self, out: &mut ::std::string::String) {
                out.push_str(concat!("{\"", stringify!($first), "\":"));
                $crate::codec::Codec::put(&self.$first, out);
                $(
                    out.push_str(concat!(",\"", stringify!($rest), "\":"));
                    $crate::codec::Codec::put(&self.$rest, out);
                )*
                out.push('}');
            }
            fn take(
                v: &$crate::codec::Json,
                what: &str,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                let v = $crate::codec::object(v, what)?;
                Ok($ty {
                    $first: $crate::codec::member(v, stringify!($first))?,
                    $($rest: $crate::codec::member(v, stringify!($rest))?,)*
                })
            }
        }
    };
    ($ty:ident [ $first:ident $(, $rest:ident)* $(,)? ]) => {
        impl $crate::codec::Codec for $ty {
            fn put(&self, out: &mut ::std::string::String) {
                out.push('[');
                $crate::codec::Codec::put(&self.$first, out);
                $(
                    out.push(',');
                    $crate::codec::Codec::put(&self.$rest, out);
                )*
                out.push(']');
            }
            fn take(
                v: &$crate::codec::Json,
                what: &str,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                let [$first, $($rest),*] = $crate::codec::items(v, what)? else {
                    return Err($crate::codec::mismatch(
                        what,
                        concat!("an array [", stringify!($first $(, $rest)*), "]"),
                    ));
                };
                Ok($ty {
                    $first: $crate::codec::Codec::take($first, what)?,
                    $($rest: $crate::codec::Codec::take($rest, what)?,)*
                })
            }
        }
    };
}

/// Unsigned integers travel as JSON numbers, parsed from their raw text
/// (no detour through `f64`).
macro_rules! unsigned_codec {
    ($($t:ty),+) => {$(
        impl Codec for $t {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn take(v: &Json, what: &str) -> Result<Self, String> {
                match v {
                    Json::Num(raw) => raw.parse().ok(),
                    _ => None,
                }
                .ok_or_else(|| mismatch(what, "an unsigned integer"))
            }
        }
    )+};
}

unsigned_codec!(u64, usize);

impl Codec for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn take(v: &Json, what: &str) -> Result<Self, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(mismatch(what, "a boolean")),
        }
    }
}

/// The strings standing in for the floats JSON has no literal for.
const NON_FINITE: [(&str, f64); 3] = [
    ("inf", f64::INFINITY),
    ("-inf", f64::NEG_INFINITY),
    ("nan", f64::NAN),
];

impl Codec for f64 {
    fn put(&self, out: &mut String) {
        let _ = match NON_FINITE
            .iter()
            .find(|(_, x)| x == self || (x.is_nan() && self.is_nan()))
        {
            Some((label, _)) => write!(out, "\"{label}\""),
            None => write!(out, "{self}"),
        };
    }
    fn take(v: &Json, what: &str) -> Result<Self, String> {
        match v {
            // Only the exact text `put` writes. Two spellings of one f64
            // (a flipped 17th digit) would otherwise decode alike, and a
            // digest over the re-encoding could not tell them apart.
            Json::Num(raw) => v.as_f64().filter(|x| x.to_string() == *raw),
            Json::Str(s) => NON_FINITE
                .iter()
                .find(|(label, _)| label == s)
                .map(|&(_, x)| x),
            _ => None,
        }
        .ok_or_else(|| mismatch(what, "a float"))
    }
}

impl Codec for String {
    fn put(&self, out: &mut String) {
        out.push('"');
        out.push_str(&escape(self));
        out.push('"');
    }
    fn take(v: &Json, what: &str) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| mismatch(what, "a string"))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(x) => x.put(out),
        }
    }
    fn take(v: &Json, what: &str) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::take(v, what).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, out: &mut String) {
        put_seq(out, self);
    }
    fn take(v: &Json, what: &str) -> Result<Self, String> {
        take_seq(v, what)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn put(&self, out: &mut String) {
        put_seq(out, self);
    }
    fn take(v: &Json, what: &str) -> Result<Self, String> {
        take_seq(v, what)
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn put(&self, out: &mut String) {
        put_seq(out, self);
    }
    fn take(v: &Json, what: &str) -> Result<Self, String> {
        Vec::<T>::take(v, what)?
            .try_into()
            .map_err(|_| mismatch(what, &format!("an array of {N}")))
    }
}

/// Tuples travel as arrays of their elements.
macro_rules! tuple_codec {
    ($wanted:literal: $T0:ident $x0:ident $(, $T:ident $x:ident)+) => {
        impl<$T0: Codec, $($T: Codec),+> Codec for ($T0, $($T),+) {
            fn put(&self, out: &mut String) {
                let ($x0, $($x),+) = self;
                out.push('[');
                $x0.put(out);
                $(
                    out.push(',');
                    $x.put(out);
                )+
                out.push(']');
            }
            fn take(v: &Json, what: &str) -> Result<Self, String> {
                let [$x0, $($x),+] = items(v, what)? else {
                    return Err(mismatch(what, $wanted));
                };
                Ok(($T0::take($x0, what)?, $($T::take($x, what)?),+))
            }
        }
    };
}

tuple_codec!("a pair": A a, B b);
tuple_codec!("a triple": A a, B b, C c);

codec!(JobId(usize));
codec!(CoreId(usize));
codec!(DvfsLevel(usize));

codec!(SolverStats [batch_calls, batched_items, decay_cache_hits, decay_cache_misses]);
codec!(NumericsStats [fallback_activations, fallback_steps, guard_trips]);

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(value: T, json: &str) {
        assert_eq!(encode(&value), json);
        assert_eq!(decode::<T>(json), Ok(value));
    }

    #[test]
    fn primitives_encode_canonically_and_round_trip() {
        round_trip(u64::MAX, "18446744073709551615");
        round_trip(7usize, "7");
        round_trip(true, "true");
        round_trip(0.1 + 0.2, "0.30000000000000004");
        round_trip(-0.0f64, "-0");
        round_trip(1.0 / 3.0, "0.3333333333333333");
        round_trip(String::from("a\"b\\c — µ"), "\"a\\\"b\\\\c — µ\"");
        round_trip(Some(vec![1u64, 2]), "[1,2]");
        round_trip(None::<u64>, "null");
        round_trip([1usize, 2, 3], "[1,2,3]");
        round_trip((JobId(3), 1usize, 2.5f64), "[3,1,2.5]");
        round_trip(VecDeque::from(vec![(1e-4, 2.5)]), "[[0.0001,2.5]]");
        round_trip(Vec::<f64>::new(), "[]");
    }

    #[test]
    fn non_finite_floats_travel_as_strings() {
        assert_eq!(encode(&f64::INFINITY), "\"inf\"");
        assert_eq!(encode(&f64::NEG_INFINITY), "\"-inf\"");
        assert_eq!(encode(&-f64::NAN), "\"nan\"");
        assert_eq!(decode::<f64>("\"-inf\""), Ok(f64::NEG_INFINITY));
        assert!(decode::<f64>("\"nan\"").is_ok_and(f64::is_nan));
        assert!(decode::<f64>("\"warm\"").is_err());
    }

    #[test]
    fn only_the_canonical_spelling_of_a_float_decodes() {
        let x = 45.212396796914206f64;
        assert_eq!(decode::<f64>("45.212396796914206"), Ok(x));
        // The last digit flipped: the same f64, but not the text `put`
        // writes for it, so a corrupted document cannot pass as intact.
        assert_eq!("45.212396796914209".parse::<f64>(), Ok(x));
        let err = decode::<f64>("45.212396796914209").expect_err("non-canonical");
        assert!(err.contains("a float"), "{err}");
        for other in ["1.0", "1e3", "-0.0", "0.30000000000000005"] {
            assert!(decode::<f64>(other).is_err(), "{other}");
        }
    }

    #[test]
    fn stats_travel_as_arrays_in_declaration_order() {
        let s = SolverStats {
            batch_calls: 1,
            batched_items: 2,
            decay_cache_hits: 3,
            decay_cache_misses: 4,
        };
        round_trip(s, "[1,2,3,4]");
        let n = NumericsStats {
            fallback_activations: 5,
            fallback_steps: 6,
            guard_trips: 7,
        };
        round_trip(n, "[5,6,7]");
        let err = decode::<NumericsStats>("[5,6]").expect_err("two counters");
        assert!(err.contains("fallback_activations, fallback_steps, guard_trips"));
    }

    codec! {
        #[derive(Debug, PartialEq)]
        struct Probe {
            count: u64,
            peak: f64,
            cores: Option<Vec<CoreId>>,
        }
    }

    #[test]
    fn objects_follow_the_field_list_and_name_bad_members() {
        let p = Probe {
            count: 2,
            peak: f64::NEG_INFINITY,
            cores: Some(vec![CoreId(5), CoreId(10)]),
        };
        round_trip(p, r#"{"count":2,"peak":"-inf","cores":[5,10]}"#);
        // Member order in the input is immaterial.
        assert!(decode::<Probe>(r#"{"cores":null,"peak":1,"count":2}"#).is_ok());
        let missing = decode::<Probe>(r#"{"count":2,"cores":null}"#).expect_err("no peak");
        assert!(missing.contains("`peak` is missing"), "{missing}");
        let wrong = decode::<Probe>(r#"{"count":-1,"peak":1,"cores":null}"#).expect_err("signed");
        assert!(wrong.contains("`count`"), "{wrong}");
        assert!(decode::<Probe>("[2]").is_err());
        assert!(decode::<Probe>("{\"count\":").is_err());
    }
}

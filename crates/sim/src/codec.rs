//! The one JSON codec behind every document of the workspace (DESIGN.md
//! §13): checkpoints and scheduler snapshots, run reports, campaign
//! documents and their manifest lines, sweep specs and fault plans.
//!
//! [`Codec`] pairs the encoder of a type with its decoder, and
//! [`codec!`](crate::codec!) derives both from one member list:
//!
//! ```
//! use hp_sim::codec::{decode, decode_document, encode, pretty};
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
//! let doc = pretty(&Snapshot { tau_index: 2, last_peak: f64::NAN, blob: None });
//! assert_eq!(doc, "{\n  \"tau_index\": 2,\n  \"last_peak\": null,\n  \"blob\": null\n}\n");
//! assert!(decode_document::<Snapshot>(&doc).is_ok_and(|s| s.last_peak.is_nan()));
//! ```
//!
//! Decoding finds members by name, refuses a repeated or undeclared one,
//! and every failure names the member it stopped at.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::marker::PhantomData;

use hp_floorplan::CoreId;
use hp_obs::json::{escape, parse};
use hp_power::DvfsLevel;
use hp_thermal::{NumericsStats, SolverStats};
use hp_workload::JobId;

pub use hp_obs::json::Json;

/// How a document is laid out, and how it spells non-finite floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// Compact. Non-finite floats are `"inf"`, `"-inf"` and `"nan"`, and
    /// a float decodes only from the text the encoder writes for it.
    Canonical,
    /// One line, a space after every `,` and `:`. Non-finite floats are
    /// `null`, which decodes as NaN; any spelling of a number decodes.
    Line,
    /// Each object member on its own line at two-space indent; an array
    /// of scalars on one line. Floats as in [`Style::Line`].
    Pretty,
}

/// A value with one JSON encoding per [`Style`].
pub trait Codec: Sized {
    /// Whether the encoding is a JSON scalar (a pretty array of scalars
    /// stays on one line).
    const SCALAR: bool = false;

    /// Appends the encoding of `self` to `w`.
    fn put(&self, w: &mut Writer);

    /// Decodes a value from `v`, naming the member `what` on failure.
    fn take(v: &Json, what: &str, style: Style) -> Result<Self, String>;
}

/// An encoding of a `T` other than `T`'s own [`Codec`]: a member
/// declared `name: A` in [`codec!`](crate::codec!) travels as `A` says.
pub trait Adapter<T> {
    /// Whether the encoding is a JSON scalar.
    const SCALAR: bool;

    /// Appends the encoding of `value` to `w`.
    fn put_value(value: &T, w: &mut Writer);

    /// Decodes a value from `v`, naming the member `what` on failure.
    fn take_value(v: &Json, what: &str, style: Style) -> Result<T, String>;
}

/// The [`Adapter`] of a type's own [`Codec`].
#[derive(Debug)]
pub struct Own;

impl<T: Codec> Adapter<T> for Own {
    const SCALAR: bool = T::SCALAR;
    fn put_value(value: &T, w: &mut Writer) {
        value.put(w);
    }
    fn take_value(v: &Json, what: &str, style: Style) -> Result<T, String> {
        T::take(v, what, style)
    }
}

/// The members [`codec!`](crate::codec!) declared for a struct, which
/// `..field` splices into another object.
pub trait Members: Sized {
    /// Writes every member.
    fn put_members(&self, o: &mut Items<'_>);

    /// Reads every member.
    fn take_members(f: &mut Fields<'_>) -> Result<Self, String>;
}

/// `value` in [`Style::Canonical`].
pub fn encode<T: Codec>(value: &T) -> String {
    write(value, Style::Canonical)
}

/// `value` in [`Style::Line`].
pub fn line<T: Codec>(value: &T) -> String {
    write(value, Style::Line)
}

/// `value` in [`Style::Pretty`], ending in a newline.
pub fn pretty<T: Codec>(value: &T) -> String {
    write(value, Style::Pretty) + "\n"
}

fn write<T: Codec>(value: &T, style: Style) -> String {
    let mut w = Writer {
        out: String::new(),
        style,
        depth: 0,
    };
    value.put(&mut w);
    w.out
}

/// Decodes a [`Style::Canonical`] document.
pub fn decode<T: Codec>(src: &str) -> Result<T, String> {
    let doc = parse(src).map_err(|e| e.to_string())?;
    T::take(&doc, "snapshot", Style::Canonical)
}

/// Decodes a [`Style::Line`] or [`Style::Pretty`] document, or one
/// written by hand.
pub fn decode_document<T: Codec>(src: &str) -> Result<T, String> {
    let doc = parse(src).map_err(|e| e.to_string())?;
    T::take(&doc, "document", Style::Pretty)
}

/// The `schema` tag of a document.
pub fn schema(doc: &Json) -> Result<String, String> {
    let tag = doc.get("schema").ok_or("`schema` is missing")?;
    String::take(tag, "schema", Style::Canonical)
}

/// The error for member `what` holding something other than `wanted`.
pub fn mismatch(what: &str, wanted: &str) -> String {
    format!("`{what}` is not {wanted}")
}

/// The items of `v` if it is an array.
pub fn items<'a>(v: &'a Json, what: &str) -> Result<&'a [Json], String> {
    match v {
        Json::Arr(items) => Ok(items),
        _ => Err(mismatch(what, "an array")),
    }
}

/// The members of `v` if it is an object that names each at most once.
fn members<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    let Json::Obj(members) = v else {
        return Err(mismatch(what, "an object"));
    };
    for (i, (key, _)) in members.iter().enumerate() {
        if members[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("`{key}` is repeated in `{what}`"));
        }
    }
    Ok(members)
}

/// An encoding in progress.
#[derive(Debug)]
pub struct Writer {
    out: String,
    style: Style,
    depth: usize,
}

impl Writer {
    fn string(&mut self, s: &str) {
        self.out.push('"');
        self.out.push_str(&escape(s));
        self.out.push('"');
    }

    /// Writes an object whose members `fill` puts.
    pub fn object(&mut self, fill: impl FnOnce(&mut Items<'_>)) {
        self.items(['{', '}'], true, fill);
    }

    /// Writes an array whose items `fill` puts, on one line in every
    /// style when they are `scalar`.
    pub fn array(&mut self, scalar: bool, fill: impl FnOnce(&mut Items<'_>)) {
        self.items(['[', ']'], !scalar, fill);
    }

    fn items(&mut self, [open, close]: [char; 2], broken: bool, fill: impl FnOnce(&mut Items<'_>)) {
        self.out.push(open);
        self.depth += 1;
        let mut items = Items {
            w: self,
            empty: true,
            broken,
            omit: &[],
        };
        fill(&mut items);
        let multiline = !items.empty && broken;
        self.depth -= 1;
        if multiline && self.style == Style::Pretty {
            self.newline();
        }
        self.out.push(close);
    }

    fn newline(&mut self) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n("  ", self.depth));
    }
}

/// The members of an object or the items of an array being written.
#[derive(Debug)]
pub struct Items<'w> {
    w: &'w mut Writer,
    empty: bool,
    broken: bool,
    omit: &'static [&'static str],
}

impl Items<'_> {
    fn next(&mut self) {
        let broken = self.broken && self.w.style == Style::Pretty;
        if !std::mem::replace(&mut self.empty, false) {
            let spaced = self.w.style != Style::Canonical && !broken;
            self.w.out.push_str(if spaced { ", " } else { "," });
        }
        if broken {
            self.w.newline();
        }
    }

    /// Writes the next item as `A` encodes `value`.
    pub fn item<A: Adapter<T>, T>(&mut self, value: &T) {
        self.next();
        A::put_value(value, self.w);
    }

    /// Writes member `key` as `A` encodes `value`, unless it is omitted.
    pub fn member<A: Adapter<T>, T>(&mut self, key: &str, value: &T) {
        if !self.omit.contains(&key) {
            self.next();
            self.w.string(key);
            let colon = if self.w.style == Style::Canonical {
                ":"
            } else {
                ": "
            };
            self.w.out.push_str(colon);
            A::put_value(value, self.w);
        }
    }

    /// Runs `fill` with the members named in `omit` left out.
    pub fn without(&mut self, omit: &'static [&'static str], fill: impl FnOnce(&mut Self)) {
        let outer = std::mem::replace(&mut self.omit, omit);
        fill(self);
        self.omit = outer;
    }
}

/// The members of one object being decoded: each is taken once by name,
/// and [`finish`](Fields::finish) refuses any left over.
#[derive(Debug)]
pub struct Fields<'a> {
    what: &'a str,
    members: &'a [(String, Json)],
    taken: Vec<bool>,
    declared: Vec<&'static str>,
    style: Style,
}

impl<'a> Fields<'a> {
    /// The members of `v`.
    pub fn new(v: &'a Json, what: &'a str, style: Style) -> Result<Self, String> {
        let members = members(v, what)?;
        Ok(Fields {
            what,
            members,
            taken: vec![false; members.len()],
            declared: Vec::new(),
            style,
        })
    }

    /// Decodes member `key` as `A` encodes it, or calls `default` when
    /// the member is absent.
    pub fn take<A: Adapter<T>, T>(
        &mut self,
        key: &'static str,
        default: Option<fn() -> T>,
    ) -> Result<T, String> {
        self.declared.push(key);
        match (self.members.iter().position(|(k, _)| k == key), default) {
            (Some(i), _) => {
                self.taken[i] = true;
                A::take_value(&self.members[i].1, key, self.style)
            }
            (None, Some(default)) => Ok(default()),
            (None, None) => Err(format!("`{key}` is missing")),
        }
    }

    /// Checks that the `schema` member is `tag`.
    pub fn schema(&mut self, tag: &str) -> Result<(), String> {
        let found: String = self.take::<Own, _>("schema", None)?;
        if found == tag {
            Ok(())
        } else {
            Err(format!("unknown schema `{found}` (expected `{tag}`)"))
        }
    }

    /// Refuses any member that was not taken.
    pub fn finish(self) -> Result<(), String> {
        match self.members.iter().zip(&self.taken).find(|(_, &t)| !t) {
            Some(((key, _), _)) => Err(format!(
                "unknown key `{key}` in `{}` (expected one of {:?})",
                self.what, self.declared
            )),
            None => Ok(()),
        }
    }
}

/// Implements [`Codec`] for a struct from one member list.
///
/// * `codec! { struct Name { a: A, b: B } }` declares the struct (with
///   its attributes and doc comments) and encodes it as an object whose
///   members follow the declaration.
/// * `codec!(Name { a, b })` does the same for a struct declared
///   elsewhere. A member reads `field as "key": Adapter = default`, each
///   part optional: `as` renames its key, the [`Adapter`] encodes its
///   value, and a member with a default may be left out of a document.
///   `#[schema = TAG]` before the name writes and checks a leading
///   `"schema"` member; a leading `..field without [member, …],` splices
///   in `field`'s own members but the ones named; a trailing
///   `where check` runs `check(&value) -> Result<(), impl Display>` on
///   every decoded value.
/// * `codec!(Name [a, b])` encodes a struct as an array in list order and
///   `codec!(Name(Inner))` encodes a newtype as its inner value.
///
/// The decoder must fill every field, so a field left off a list does
/// not compile, and it refuses a member the list does not name.
#[macro_export]
macro_rules! codec {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@adapter) => { $crate::codec::Own };
    (@adapter $adapter:ty) => { $adapter };
    (@default) => { None };
    (@default $default:expr) => { Some(|| $default) };
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
            const SCALAR: bool = <$inner as $crate::codec::Codec>::SCALAR;
            fn put(&self, w: &mut $crate::codec::Writer) {
                $crate::codec::Codec::put(&self.0, w);
            }
            fn take(
                v: &$crate::codec::Json,
                what: &str,
                style: $crate::codec::Style,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                <$inner as $crate::codec::Codec>::take(v, what, style).map($ty)
            }
        }
    };
    (
        $(#[schema = $schema:ident])?
        $ty:ident {
            $(.. $base:ident without [$($skip:ident),* $(,)?],)?
            $($field:ident $(as $key:literal)? $(: $adapter:ty)? $(= $default:expr)?),* $(,)?
        }
        $(where $check:path)?
    ) => {
        impl $crate::codec::Members for $ty {
            fn put_members(&self, o: &mut $crate::codec::Items<'_>) {
                $(o.member::<$crate::codec::Own, ::std::string::String>(
                    "schema",
                    &$schema.into(),
                );)?
                $(o.without(&[$(stringify!($skip)),*], |o| {
                    $crate::codec::Members::put_members(&self.$base, o);
                });)?
                $(o.member::<$crate::codec!(@adapter $($adapter)?), _>(
                    $crate::codec!(@key $field $($key)?),
                    &self.$field,
                );)*
            }
            fn take_members(
                f: &mut $crate::codec::Fields<'_>,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                $(f.schema($schema)?;)?
                Ok($ty {
                    $($base: $crate::codec::Members::take_members(f)?,)?
                    $($field: f.take::<$crate::codec!(@adapter $($adapter)?), _>(
                        $crate::codec!(@key $field $($key)?),
                        $crate::codec!(@default $($default)?),
                    )?,)*
                })
            }
        }
        impl $crate::codec::Codec for $ty {
            fn put(&self, w: &mut $crate::codec::Writer) {
                w.object(|o| $crate::codec::Members::put_members(self, o));
            }
            fn take(
                v: &$crate::codec::Json,
                what: &str,
                style: $crate::codec::Style,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                let mut f = $crate::codec::Fields::new(v, what, style)?;
                let value = <Self as $crate::codec::Members>::take_members(&mut f)?;
                f.finish()?;
                $($check(&value).map_err(|e| format!("`{what}`: {e}"))?;)?
                Ok(value)
            }
        }
    };
    ($ty:ident [ $first:ident $(, $rest:ident)* $(,)? ]) => {
        impl $crate::codec::Codec for $ty {
            fn put(&self, w: &mut $crate::codec::Writer) {
                w.array(false, |a| {
                    a.item::<$crate::codec::Own, _>(&self.$first);
                    $(a.item::<$crate::codec::Own, _>(&self.$rest);)*
                });
            }
            fn take(
                v: &$crate::codec::Json,
                what: &str,
                style: $crate::codec::Style,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                let [$first, $($rest),*] = $crate::codec::items(v, what)? else {
                    return Err($crate::codec::mismatch(
                        what,
                        concat!("an array [", stringify!($first $(, $rest)*), "]"),
                    ));
                };
                Ok($ty {
                    $first: $crate::codec::Codec::take($first, what, style)?,
                    $($rest: $crate::codec::Codec::take($rest, what, style)?,)*
                })
            }
        }
    };
}

/// Unsigned integers travel as JSON numbers, parsed from their raw text
/// (no detour through `f64`).
macro_rules! unsigned_codec {
    ($($t:ty: $wanted:literal),+) => {$(
        impl Codec for $t {
            const SCALAR: bool = true;
            fn put(&self, w: &mut Writer) {
                let _ = write!(w.out, "{self}");
            }
            fn take(v: &Json, what: &str, _: Style) -> Result<Self, String> {
                match v {
                    Json::Num(raw) => raw.parse().ok(),
                    _ => None,
                }
                .ok_or_else(|| mismatch(what, $wanted))
            }
        }
    )+};
}

unsigned_codec!(
    u64: "an unsigned integer", usize: "an unsigned integer", u32: "a 32-bit unsigned integer"
);

impl Codec for bool {
    const SCALAR: bool = true;
    fn put(&self, w: &mut Writer) {
        w.out.push_str(if *self { "true" } else { "false" });
    }
    fn take(v: &Json, what: &str, _: Style) -> Result<Self, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err(mismatch(what, "a boolean")),
        }
    }
}

/// The strings standing in for non-finite floats in [`Style::Canonical`].
const NON_FINITE: [(&str, f64); 3] = [
    ("inf", f64::INFINITY),
    ("-inf", f64::NEG_INFINITY),
    ("nan", f64::NAN),
];

impl Codec for f64 {
    const SCALAR: bool = true;
    fn put(&self, w: &mut Writer) {
        let label = NON_FINITE
            .iter()
            .find(|(_, x)| x == self || (x.is_nan() && self.is_nan()));
        let _ = match (label, w.style) {
            (None, _) => write!(w.out, "{self}"),
            (Some((label, _)), Style::Canonical) => write!(w.out, "\"{label}\""),
            (Some(_), Style::Line | Style::Pretty) => write!(w.out, "null"),
        };
    }
    fn take(v: &Json, what: &str, style: Style) -> Result<Self, String> {
        match (v, style) {
            // Only the exact text `put` writes. Two spellings of one f64
            // (a flipped 17th digit) would otherwise decode alike, and a
            // digest over the re-encoding could not tell them apart.
            (Json::Num(raw), Style::Canonical) => v.as_f64().filter(|x| x.to_string() == *raw),
            (Json::Str(s), Style::Canonical) => NON_FINITE
                .iter()
                .find(|(label, _)| label == s)
                .map(|&(_, x)| x),
            (Json::Num(_), _) => v.as_f64(),
            (Json::Null, Style::Line | Style::Pretty) => Some(f64::NAN),
            _ => None,
        }
        .ok_or_else(|| mismatch(what, "a float"))
    }
}

impl Codec for String {
    const SCALAR: bool = true;
    fn put(&self, w: &mut Writer) {
        w.string(self);
    }
    fn take(v: &Json, what: &str, _: Style) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| mismatch(what, "a string"))
    }
}

impl<T: Codec> Codec for Option<T> {
    const SCALAR: bool = T::SCALAR;
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.out.push_str("null"),
            Some(x) => x.put(w),
        }
    }
    fn take(v: &Json, what: &str, style: Style) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::take(v, what, style).map(Some),
        }
    }
}

fn put_seq<'a, A: Adapter<T>, T: 'a>(w: &mut Writer, seq: impl IntoIterator<Item = &'a T>) {
    w.array(A::SCALAR, |a| {
        for x in seq {
            a.item::<A, T>(x);
        }
    });
}

fn take_seq<A: Adapter<T>, T, C: FromIterator<T>>(
    v: &Json,
    what: &str,
    style: Style,
) -> Result<C, String> {
    items(v, what)?
        .iter()
        .map(|x| A::take_value(x, what, style))
        .collect()
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, w: &mut Writer) {
        put_seq::<Own, T>(w, self);
    }
    fn take(v: &Json, what: &str, style: Style) -> Result<Self, String> {
        take_seq::<Own, T, _>(v, what, style)
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn put(&self, w: &mut Writer) {
        put_seq::<Own, T>(w, self);
    }
    fn take(v: &Json, what: &str, style: Style) -> Result<Self, String> {
        take_seq::<Own, T, _>(v, what, style)
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn put(&self, w: &mut Writer) {
        put_seq::<Own, T>(w, self);
    }
    fn take(v: &Json, what: &str, style: Style) -> Result<Self, String> {
        take_seq::<Own, T, Vec<T>>(v, what, style)?
            .try_into()
            .map_err(|_| mismatch(what, &format!("an array of {N}")))
    }
}

/// Tuples travel as arrays of their elements.
macro_rules! tuple_codec {
    ($wanted:literal: $T0:ident $x0:ident $(, $T:ident $x:ident)+) => {
        impl<$T0: Codec, $($T: Codec),+> Codec for ($T0, $($T),+) {
            fn put(&self, w: &mut Writer) {
                let ($x0, $($x),+) = self;
                w.array($T0::SCALAR $(&& $T::SCALAR)+, |a| {
                    a.item::<Own, _>($x0);
                    $(a.item::<Own, _>($x);)+
                });
            }
            fn take(v: &Json, what: &str, style: Style) -> Result<Self, String> {
                let [$x0, $($x),+] = items(v, what)? else {
                    return Err(mismatch(what, $wanted));
                };
                Ok(($T0::take($x0, what, style)?, $($T::take($x, what, style)?),+))
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

/// A `Vec<T>` whose items travel as `A` encodes them.
#[derive(Debug)]
pub struct Seq<A>(PhantomData<A>);

impl<T, A: Adapter<T>> Adapter<Vec<T>> for Seq<A> {
    const SCALAR: bool = false;
    fn put_value(value: &Vec<T>, w: &mut Writer) {
        put_seq::<A, T>(w, value);
    }
    fn take_value(v: &Json, what: &str, style: Style) -> Result<Vec<T>, String> {
        take_seq::<A, T, _>(v, what, style)
    }
}

/// A `u64` as a string of 16 lowercase hex digits (digests, spec hashes).
#[derive(Debug)]
pub struct Hex;

impl Adapter<u64> for Hex {
    const SCALAR: bool = true;
    fn put_value(value: &u64, w: &mut Writer) {
        w.string(&format!("{value:016x}"));
    }
    fn take_value(v: &Json, what: &str, style: Style) -> Result<u64, String> {
        let raw = String::take(v, what, style)?;
        u64::from_str_radix(&raw, 16)
            .map_err(|_| format!("`{what}` is not a 64-bit hex value: `{raw}`"))
    }
}

/// A chip grid `(width, height)` as the string `"WxH"`.
#[derive(Debug)]
pub struct Grid;

impl Adapter<(usize, usize)> for Grid {
    const SCALAR: bool = true;
    fn put_value(&(width, height): &(usize, usize), w: &mut Writer) {
        w.string(&format!("{width}x{height}"));
    }
    fn take_value(v: &Json, what: &str, style: Style) -> Result<(usize, usize), String> {
        let raw = String::take(v, what, style)?;
        let dims = raw
            .split_once(['x', 'X'])
            .map(|(w, h)| (w.trim().parse(), h.trim().parse()));
        match dims {
            Some((Ok(w @ 1..), Ok(h @ 1..))) => Ok((w, h)),
            _ => Err(format!(
                "`{what}`: bad grid `{raw}` (expected WxH, both non-zero)"
            )),
        }
    }
}

/// An enum that travels as one of a fixed set of labels.
pub trait Labelled: Sized + Copy + 'static {
    /// What a label names, for errors (`"status"`, `"thermal profile"`).
    const KIND: &'static str;
    /// Every value.
    const ALL: &'static [Self];
    /// The value's label.
    fn label(self) -> &'static str;
}

impl<T: Labelled> Codec for T {
    const SCALAR: bool = true;
    fn put(&self, w: &mut Writer) {
        w.string(self.label());
    }
    fn take(v: &Json, what: &str, style: Style) -> Result<Self, String> {
        let raw = String::take(v, what, style)?;
        T::ALL
            .iter()
            .copied()
            .find(|x| x.label() == raw)
            .ok_or_else(|| {
                let labels: Vec<_> = T::ALL.iter().map(|x| x.label()).collect();
                format!("unknown {} `{raw}` (expected one of {labels:?})", T::KIND)
            })
    }
}

/// A `(name, value)` entry of a [`Named`] list.
pub trait Entry {
    /// The value's type.
    type Value: Codec;
    /// The entry's name and value.
    fn parts(&self) -> (&str, &Self::Value);
    /// An entry from its name and value.
    fn from_parts(name: String, value: Self::Value) -> Self;
}

/// A list of named entries as one object, an entry per member, decoded
/// in name order.
#[derive(Debug)]
pub struct Named;

impl<E: Entry> Adapter<Vec<E>> for Named {
    const SCALAR: bool = false;
    fn put_value(value: &Vec<E>, w: &mut Writer) {
        w.object(|o| {
            for (name, value) in value.iter().map(Entry::parts) {
                o.member::<Own, _>(name, value);
            }
        });
    }
    fn take_value(v: &Json, what: &str, style: Style) -> Result<Vec<E>, String> {
        let mut entries = members(v, what)?
            .iter()
            .map(|(name, value)| {
                Ok(E::from_parts(
                    name.clone(),
                    Codec::take(value, name, style)?,
                ))
            })
            .collect::<Result<Vec<E>, String>>()?;
        entries.sort_by(|a, b| a.parts().0.cmp(b.parts().0));
        Ok(entries)
    }
}

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
    fn documents_write_non_finite_floats_as_null_and_read_any_spelling() {
        assert_eq!(
            line(&vec![1.5, f64::NAN, f64::INFINITY]),
            "[1.5, null, null]"
        );
        let back: Vec<f64> = decode_document("[1.50, 1e3, -0.0, null]").expect("lenient");
        assert_eq!(back[..3], [1.5, 1000.0, 0.0]);
        assert!(back[3].is_nan());
        // A canonical document does not take `null` for a float, and a
        // document does not take the canonical strings.
        assert!(decode::<f64>("null").is_err());
        assert!(decode_document::<f64>("\"inf\"").is_err());
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

    #[test]
    fn objects_refuse_repeated_and_undeclared_members() {
        let twice = decode::<Probe>(r#"{"count":2,"peak":1,"cores":null,"count":3}"#)
            .expect_err("repeated");
        assert!(twice.contains("`count` is repeated"), "{twice}");
        let extra = decode::<Probe>(r#"{"count":2,"peak":1,"cores":null,"spare":0}"#)
            .expect_err("undeclared");
        assert!(extra.contains("unknown key `spare`"), "{extra}");
        assert!(extra.contains("\"count\", \"peak\", \"cores\""), "{extra}");
    }

    #[derive(Debug, PartialEq)]
    struct Job {
        name: String,
        grid: (usize, usize),
        digest: u64,
        sizes: Vec<(usize, usize)>,
        tries: u32,
        inner: Probe,
    }

    codec!(Job {
        name as "label",
        grid: Grid,
        digest: Hex = 0,
        sizes: Seq<Grid>,
        tries = 1,
        inner,
    });

    #[derive(Debug, PartialEq)]
    struct Tagged {
        job: Job,
        note: String,
    }

    const TAG: &str = "probe-v1";

    codec!(#[schema = TAG] Tagged { ..job without [inner, tries], note });

    fn job() -> Job {
        Job {
            name: "a".into(),
            grid: (4, 2),
            digest: 0xbeef,
            sizes: vec![(1, 1), (8, 8)],
            tries: 3,
            inner: Probe {
                count: 1,
                peak: f64::NAN,
                cores: Some(vec![CoreId(0)]),
            },
        }
    }

    #[test]
    fn pretty_documents_indent_objects_and_keep_scalar_arrays_on_one_line() {
        let doc = pretty(&vec![job()]);
        let expected = r#"[
  {
    "label": "a",
    "grid": "4x2",
    "digest": "000000000000beef",
    "sizes": ["1x1", "8x8"],
    "tries": 3,
    "inner": {
      "count": 1,
      "peak": null,
      "cores": [0]
    }
  }
]
"#;
        assert_eq!(doc, expected);
        let back: Vec<Job> = decode_document(&doc).expect("round trip");
        assert_eq!(back[0].sizes, job().sizes);
        assert!(back[0].inner.peak.is_nan());
        assert_eq!(pretty(&Vec::<Job>::new()), "[]\n");
        assert_eq!(pretty(&Vec::<(u64, u64)>::new()), "[]\n");
    }

    #[test]
    fn members_rename_adapt_default_and_splice() {
        let text = line(&Tagged {
            job: job(),
            note: "n".into(),
        });
        assert_eq!(
            text,
            r#"{"schema": "probe-v1", "label": "a", "grid": "4x2", "digest": "000000000000beef", "sizes": ["1x1", "8x8"], "note": "n"}"#
        );
        // `tries` defaults; `inner` has no default, so the spliced member
        // left out on writing must be present on reading.
        let err = decode_document::<Tagged>(&text).expect_err("inner is required");
        assert!(err.contains("`inner` is missing"), "{err}");
        let partial = r#"{"schema": "probe-v1", "label": "b", "grid": "2X3", "sizes": [],
            "inner": {"count": 0, "peak": 1, "cores": null}, "note": ""}"#;
        let t: Tagged = decode_document(partial).expect("defaults fill the rest");
        assert_eq!((t.job.grid, t.job.digest, t.job.tries), ((2, 3), 0, 1));
        let other = partial.replace("probe-v1", "probe-v2");
        let err = decode_document::<Tagged>(&other).expect_err("schema");
        assert!(err.contains("unknown schema `probe-v2`"), "{err}");
        for (bad, named) in [
            (r#""grid": "2X3""#, r#""grid": "0x3""#),
            (r#""grid": "2X3""#, r#""grid": "2by3""#),
            (r#""sizes": []"#, r#""sizes": ["1x"]"#),
        ] {
            let err = decode_document::<Tagged>(&partial.replace(bad, named)).expect_err(named);
            assert!(err.contains("bad grid"), "{err}");
        }
        let err = decode_document::<Tagged>(
            &partial.replace("\"note\": \"\"", "\"digest\": \"xyz\", \"note\": \"\""),
        )
        .expect_err("hex");
        assert!(err.contains("`digest` is not a 64-bit hex value"), "{err}");
        let err = decode_document::<Tagged>(
            &partial.replace("\"note\": \"\"", "\"tries\": 4294967296, \"note\": \"\""),
        )
        .expect_err("u32");
        assert!(
            err.contains("`tries` is not a 32-bit unsigned integer"),
            "{err}"
        );
    }
}

//! Small-value storage for hot paths: inline id lists and inline text.
//!
//! The runtime's steady state is dominated by tiny values: a state's
//! notify list (usually one or two machines), the per-host fan-out a
//! daemon builds while routing, an actor's watcher list, a short user
//! message on a timeline. Carrying those as `Vec` or `String` means one
//! heap allocation per message — per event, at campaign scale.
//!
//! * [`InlineVec`] keeps up to `N` `Copy` ids inline in the containing
//!   value and spills to a boxed `Vec` only beyond that.
//! * [`Text`] keeps strings of up to [`Text::INLINE_CAPACITY`] bytes
//!   inline and spills longer ones to a boxed `str`;
//!   [`Text::from_fmt`] formats straight into the inline buffer.
//!
//! Both are `unsafe`-free (this crate forbids `unsafe`). `InlineVec`
//! stores `[T; N]` filled with `T::default()` past its length, so no
//! uninitialized storage is ever observed and ids pay no `Option` padding;
//! `Text` re-validates its inline bytes as UTF-8 on access, which for 30
//! bytes costs a few nanoseconds against the allocation it saves.

use std::fmt;
use std::ops::Deref;

/// A vector of `Copy` values storing its first `N` elements inline,
/// spilling to a boxed heap `Vec` beyond that. Push-only (plus
/// [`clear`](InlineVec::clear)): exactly the shape of the runtime's
/// fan-out lists, which are built once and then iterated or consumed.
///
/// The spill is boxed so an unspilled vector pays a single pointer for it:
/// `InlineVec<u32, 4>` is 32 bytes (16 inline, a length, the box).
///
/// # Examples
///
/// ```
/// use loki_core::small::InlineVec;
///
/// let mut v: InlineVec<u32, 4> = InlineVec::new();
/// for i in 0..3 {
///     v.push(i); // inline, no allocation
/// }
/// assert_eq!(v.len(), 3);
/// assert!(!v.spilled());
/// v.extend([3, 4, 5]); // 5th and 6th elements spill to the heap
/// assert!(v.spilled());
/// assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
/// assert_eq!(std::mem::size_of::<InlineVec<u32, 4>>(), 32);
/// ```
#[derive(Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    /// Inline slots; `inline[..min(len, N)]` are occupied, the rest hold
    /// `T::default()`.
    inline: [T; N],
    /// Total number of elements (inline plus spilled).
    len: u32,
    /// Overflow storage for elements past the first `N` (`None` until the
    /// first spill; kept, cleared, across [`clear`](InlineVec::clear)).
    /// Boxed on purpose: a thin pointer instead of a 24-byte `Vec` keeps
    /// `InlineVec<SmId, 4>` at 32 bytes and the runtime's `RtMsg` at 48.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<T>>>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector. Allocation-free.
    pub fn new() -> Self {
        InlineVec {
            inline: [T::default(); N],
            len: 0,
            spill: None,
        }
    }

    /// Creates an empty vector holding exactly one element. Allocation-free
    /// when `N >= 1`.
    pub fn one(value: T) -> Self {
        let mut v = Self::new();
        v.push(value);
        v
    }

    /// Appends `value`; allocates only once the inline capacity `N` is
    /// exhausted.
    pub fn push(&mut self, value: T) {
        let i = self.len as usize;
        if i < N {
            self.inline[i] = value;
        } else {
            self.spill.get_or_insert_with(Box::default).push(value);
        }
        self.len = self.len.checked_add(1).expect("InlineVec length overflow");
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether elements have overflowed to the heap.
    pub fn spilled(&self) -> bool {
        self.len() > N
    }

    /// Removes all elements, keeping any spill capacity.
    pub fn clear(&mut self) {
        let inline = self.len().min(N);
        self.inline[..inline].fill(T::default());
        self.len = 0;
        if let Some(spill) = &mut self.spill {
            spill.clear();
        }
    }

    /// The elements as two slices, inline part first.
    fn as_slices(&self) -> (&[T], &[T]) {
        let spill = self.spill.as_deref().map_or(&[][..], Vec::as_slice);
        (&self.inline[..self.len().min(N)], spill)
    }

    /// Iterates over the elements in insertion order.
    pub fn iter(&self) -> std::iter::Chain<std::slice::Iter<'_, T>, std::slice::Iter<'_, T>> {
        let (inline, spill) = self.as_slices();
        inline.iter().chain(spill)
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Equality is element-wise in insertion order; the inline/spill split is
/// an implementation detail.
impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}
impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        v.extend(iter);
        v
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for value in iter {
            self.push(value);
        }
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter =
        std::iter::Chain<std::iter::Take<std::array::IntoIter<T, N>>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        let inline = self.len().min(N);
        let spill = self.spill.map_or_else(Vec::new, |spill| *spill);
        self.inline.into_iter().take(inline).chain(spill)
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::iter::Chain<std::slice::Iter<'a, T>, std::slice::Iter<'a, T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// An immutable string that stores up to [`Text::INLINE_CAPACITY`] bytes
/// inline and spills longer contents to the heap.
///
/// Timelines carry free-form user messages (§3.5.6); most are short
/// (`"retry seq=12 attempt=3"`), so keeping them inline makes recording a
/// message — and copying it onto the global timeline — allocation-free.
/// `Text` derefs to `&str`, so readers use it like any string.
///
/// Build one with [`Text::from_fmt`] to format without a temporary
/// `String`:
///
/// ```
/// use loki_core::small::Text;
///
/// let (seq, attempt) = (12, 3);
/// let short = Text::from_fmt(format_args!("retry seq={seq} attempt={attempt}"));
/// assert_eq!(&*short, "retry seq=12 attempt=3");
/// assert!(short.is_inline()); // formatted in place: no allocation
/// assert!(short.starts_with("retry ")); // `str` methods through `Deref`
///
/// let long = Text::from("a message longer than thirty bytes spills");
/// assert!(!long.is_inline());
/// assert_eq!(long.heap_bytes(), long.len());
/// assert_eq!(std::mem::size_of::<Text>(), 32);
/// ```
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` is valid UTF-8; the rest is zero.
    Inline {
        len: u8,
        buf: [u8; Text::INLINE_CAPACITY],
    },
    Heap(Box<str>),
}

impl Text {
    /// The longest string, in bytes, stored without a heap allocation.
    pub const INLINE_CAPACITY: usize = 30;

    /// Formats `args` into a new text, allocating only when the result is
    /// longer than [`Text::INLINE_CAPACITY`] bytes.
    pub fn from_fmt(args: fmt::Arguments<'_>) -> Self {
        if let Some(s) = args.as_str() {
            return Text::from(s);
        }
        let mut w = TextWriter {
            len: 0,
            buf: [0; Text::INLINE_CAPACITY],
            spill: None,
        };
        fmt::write(&mut w, args).expect("formatting into a Text cannot fail");
        match w.spill {
            Some(s) => Text(Repr::Heap(s.into_boxed_str())),
            None => Text(Repr::Inline {
                len: w.len as u8,
                buf: w.buf,
            }),
        }
    }

    /// The contents as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => std::str::from_utf8(&buf[..usize::from(*len)])
                .expect("inline text holds valid UTF-8"),
            Repr::Heap(s) => s,
        }
    }

    /// The contents as bytes. Unlike [`Text::as_str`] this skips the UTF-8
    /// re-validation of inline contents, so byte-level scans (prefix
    /// tests, digests) pay nothing for the inline storage.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// Whether the contents are stored inline (no heap allocation).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// Bytes this text owns on the heap: its length when spilled, `0` when
    /// inline (inline bytes already sit inside `size_of::<Text>()`).
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Heap(s) => s.len(),
        }
    }

    fn inline(s: &str) -> Option<Self> {
        let bytes = s.as_bytes();
        if bytes.len() > Text::INLINE_CAPACITY {
            return None;
        }
        let mut buf = [0; Text::INLINE_CAPACITY];
        buf[..bytes.len()].copy_from_slice(bytes);
        Some(Text(Repr::Inline {
            len: bytes.len() as u8,
            buf,
        }))
    }
}

/// Formatting sink behind [`Text::from_fmt`]: fills the inline buffer and
/// moves everything to a `String` on the first write that would overflow.
struct TextWriter {
    len: usize,
    buf: [u8; Text::INLINE_CAPACITY],
    spill: Option<String>,
}

impl fmt::Write for TextWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if let Some(spill) = &mut self.spill {
            spill.push_str(s);
        } else if self.len + s.len() <= Text::INLINE_CAPACITY {
            self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
            self.len += s.len();
        } else {
            // `buf[..len]` is a concatenation of whole `&str`s.
            let head = std::str::from_utf8(&self.buf[..self.len]).expect("whole str writes");
            let mut spill = String::with_capacity(self.len + s.len());
            spill.push_str(head);
            spill.push_str(s);
            self.spill = Some(spill);
        }
        Ok(())
    }
}

impl Default for Text {
    fn default() -> Self {
        Text(Repr::Inline {
            len: 0,
            buf: [0; Text::INLINE_CAPACITY],
        })
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text::inline(s).unwrap_or_else(|| Text(Repr::Heap(s.into())))
    }
}

/// Short strings move inline (the `String`'s buffer is freed); long ones
/// keep their heap buffer.
impl From<String> for Text {
    fn from(s: String) -> Self {
        Text::inline(&s).unwrap_or_else(|| Text(Repr::Heap(s.into_boxed_str())))
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Equality is that of the contents: where the bytes live is not
/// observable.
impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}
impl Eq for Text {}

impl PartialEq<str> for Text {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_until_capacity_then_spills() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        assert!(!v.spilled());
        v.push(3);
        assert!(v.spilled());
        assert_eq!(v.len(), 3);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(v.as_slices(), (&[1, 2][..], &[3][..]));
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn one_and_from_iterator() {
        let v: InlineVec<u32, 4> = InlineVec::one(9);
        assert_eq!(v.len(), 1);
        assert!(!v.spilled());
        let w: InlineVec<u32, 4> = (0..6).collect();
        assert_eq!(w.len(), 6);
        assert_eq!(
            w.iter().copied().collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
    }

    #[test]
    fn equality_ignores_storage_split() {
        let a: InlineVec<u32, 2> = (0..5).collect();
        let b: InlineVec<u32, 2> = (0..5).collect();
        let c: InlineVec<u32, 2> = (0..4).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // A cleared-and-refilled vector keeps an (empty) spill box but
        // still equals one that never spilled.
        let mut d: InlineVec<u32, 2> = (0..5).collect();
        d.clear();
        d.extend(0..2);
        assert_eq!(d, (0..2).collect::<InlineVec<u32, 2>>());
    }

    #[test]
    fn spill_grows_past_its_first_buffer() {
        let v: InlineVec<u32, 2> = (0..40).collect();
        assert_eq!(v.len(), 40);
        assert_eq!(
            v.iter().copied().collect::<Vec<_>>(),
            (0..40).collect::<Vec<_>>()
        );
        assert_eq!(
            v.into_iter().collect::<Vec<_>>(),
            (0..40).collect::<Vec<_>>()
        );
    }

    #[test]
    fn clear_resets_and_reuses() {
        let mut v: InlineVec<u32, 2> = (0..4).collect();
        v.clear();
        assert!(v.is_empty());
        assert!(!v.spilled());
        v.push(7);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![7]);
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn debug_and_clone() {
        let v: InlineVec<u32, 2> = (0..3).collect();
        assert_eq!(format!("{v:?}"), "[0, 1, 2]");
        assert_eq!(v.clone(), v);
    }

    #[test]
    fn text_inline_boundary() {
        let at = "x".repeat(Text::INLINE_CAPACITY);
        let over = "x".repeat(Text::INLINE_CAPACITY + 1);
        assert!(Text::from(at.as_str()).is_inline());
        assert_eq!(Text::from(at.as_str()).heap_bytes(), 0);
        assert!(!Text::from(over.as_str()).is_inline());
        assert_eq!(Text::from(over.as_str()).heap_bytes(), over.len());
        assert_eq!(Text::from(over.clone()), *over.as_str());
        assert!(Text::default().is_empty());
        assert_eq!(Text::default(), "");
    }

    #[test]
    fn text_from_fmt_matches_format_across_the_spill_point() {
        // Multi-byte characters straddling the boundary must spill whole.
        for n in 0..40 {
            let expected = format!("{}é{}", "a".repeat(n), n);
            let t = Text::from_fmt(format_args!("{}é{}", "a".repeat(n), n));
            assert_eq!(t.as_str(), expected);
            assert_eq!(t.is_inline(), expected.len() <= Text::INLINE_CAPACITY);
        }
        let literal = Text::from_fmt(format_args!("no arguments"));
        assert_eq!(literal, "no arguments");
    }

    #[test]
    fn text_compares_by_content() {
        let long = "y".repeat(50);
        assert_eq!(Text::from("same"), Text::from(String::from("same")));
        assert_ne!(Text::from("same"), Text::from(long.as_str()));
        assert_eq!(Text::from(long.clone()), *long.as_str());
        let a = Text::from("same");
        assert_eq!(format!("{a} {a:?}"), "same \"same\"");
    }
}

//! DNS domain names: case-insensitive label sequences with wire encoding
//! (RFC 1035 §3.1) including compression-pointer support.
//!
//! A [`Name`] is stored in wire form — length-prefixed, lower-cased labels
//! without the root byte — inline up to 38 bytes, with a single heap spill
//! for longer names. Decoding, compressing, walking ancestors
//! and comparing names therefore never allocate per label.

use core::cmp::Ordering;
use core::fmt;
use core::hash::{Hash, Hasher};
use std::str::FromStr;

use crate::error::DnsError;

/// Maximum total wire length of a name.
pub const MAX_NAME_LEN: usize = 255;
/// Maximum length of a single label.
pub const MAX_LABEL_LEN: usize = 63;
/// Wire bytes (root byte excluded) a [`Name`] holds without allocating.
/// Sized so the whole `Name` is 48 bytes: every `Record` carries one or two.
const INLINE_CAP: usize = 38;
/// Longest label run of a valid name: 255 wire bytes less the root byte.
const MAX_LABELS_LEN: usize = MAX_NAME_LEN - 1;

/// A fully-qualified DNS name. Labels are stored lower-cased (DNS name
/// comparison is case-insensitive) without the trailing root dot.
///
/// Equality, hashing and ordering behave exactly as for the label sequence
/// `Vec<String>`: `Hash` feeds the label count, then each label's bytes
/// followed by `0xff`; `Ord` compares labels lexicographically, most
/// specific first.
///
/// ```
/// use dns::name::Name;
///
/// let name: Name = "POOL.NTP.ORG".parse().unwrap();
/// assert_eq!(name.to_string(), "pool.ntp.org");
/// assert!(name.is_subdomain_of(&"ntp.org".parse().unwrap()));
/// ```
#[derive(Clone)]
pub struct Name {
    /// Wire bytes in use (root byte excluded).
    len: u8,
    /// Number of labels.
    count: u8,
    /// The wire bytes while they fit.
    inline: [u8; INLINE_CAP],
    /// The wire bytes once they do not (`len > INLINE_CAP`).
    spill: Option<Box<[u8; MAX_LABELS_LEN]>>,
}

const _: () = assert!(std::mem::size_of::<Name>() <= 48, "Name grew past 48 bytes");

impl Name {
    /// The DNS root (empty) name.
    pub const fn root() -> Self {
        Name { len: 0, count: 0, inline: [0; INLINE_CAP], spill: None }
    }

    /// Builds a name from labels, validating lengths.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::BadName`] on empty/oversized labels or names.
    pub fn from_labels<I, S>(labels: I) -> Result<Self, DnsError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = Name::root();
        for label in labels {
            out.push_label(label.as_ref().as_bytes())?;
        }
        Ok(out)
    }

    /// Appends `label` after the existing labels (nearest the root), as a
    /// wire decoder meets them. Bytes that are not UTF-8 are replaced as by
    /// [`String::from_utf8_lossy`]; ASCII letters are lower-cased.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::BadName`], leaving the name unchanged, if the
    /// label is empty or over 63 bytes, or the name would exceed 255 bytes.
    pub fn push_label(&mut self, label: &[u8]) -> Result<(), DnsError> {
        match std::str::from_utf8(label) {
            Ok(_) => self.push_utf8(label),
            Err(_) => self.push_utf8(String::from_utf8_lossy(label).as_bytes()),
        }
    }

    fn push_utf8(&mut self, label: &[u8]) -> Result<(), DnsError> {
        if label.is_empty() || label.len() > MAX_LABEL_LEN {
            return Err(DnsError::BadName { reason: "label length out of range" });
        }
        let start = usize::from(self.len);
        let end = start + 1 + label.len();
        self.reserve(end)?;
        let buf = self.buf_mut();
        buf[start] = label.len() as u8;
        for (dst, src) in buf[start + 1..end].iter_mut().zip(label) {
            *dst = src.to_ascii_lowercase();
        }
        self.len = end as u8;
        self.count += 1;
        Ok(())
    }

    /// Appends the labels of `wire` (well-formed, lower-cased wire bytes
    /// holding `count` labels).
    fn extend_wire(&mut self, wire: &[u8], count: u8) -> Result<(), DnsError> {
        let start = usize::from(self.len);
        let end = start + wire.len();
        self.reserve(end)?;
        self.buf_mut()[start..end].copy_from_slice(wire);
        self.len = end as u8;
        self.count += count;
        Ok(())
    }

    /// Makes room for `len` wire bytes, spilling to the heap once if the
    /// inline buffer is too small.
    fn reserve(&mut self, len: usize) -> Result<(), DnsError> {
        if len + 1 > MAX_NAME_LEN {
            return Err(DnsError::BadName { reason: "name exceeds 255 bytes" });
        }
        if len > INLINE_CAP && self.spill.is_none() {
            let mut heap = Box::new([0; MAX_LABELS_LEN]);
            heap[..INLINE_CAP].copy_from_slice(&self.inline);
            self.spill = Some(heap);
        }
        Ok(())
    }

    fn buf_mut(&mut self) -> &mut [u8] {
        match &mut self.spill {
            Some(heap) => &mut heap[..],
            None => &mut self.inline,
        }
    }

    /// A name over trusted wire bytes (a label-aligned slice of another
    /// name's wire form).
    fn from_wire(wire: &[u8], count: u8) -> Name {
        let mut out = Name::root();
        // Cannot fail: `wire` is no longer than the name it was cut from.
        let _ = out.extend_wire(wire, count);
        out
    }

    /// The uncompressed wire form without the root byte: each label as a
    /// length byte followed by its lower-cased bytes.
    pub(crate) fn wire(&self) -> &[u8] {
        let len = usize::from(self.len);
        match &self.spill {
            Some(heap) => &heap[..len],
            None => &self.inline[..len],
        }
    }

    fn label_bytes(&self) -> LabelBytes<'_> {
        LabelBytes(self.wire())
    }

    /// The labels, most-significant last (`pool`, `ntp`, `org`).
    pub fn labels(&self) -> impl Iterator<Item = &str> + '_ {
        // Stored labels are UTF-8 by construction (see `push_label`).
        self.label_bytes().map(|l| std::str::from_utf8(l).unwrap_or_default())
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        usize::from(self.count)
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.len == 0
    }

    /// True if `self` is `other` or lies underneath it
    /// (`a.pool.ntp.org ⊑ ntp.org`). Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        let Some(extra) = self.count.checked_sub(other.count) else {
            return false;
        };
        self.suffix_at(extra) == other.wire()
    }

    /// The wire bytes after the first `skip` labels.
    fn suffix_at(&self, skip: u8) -> &[u8] {
        let wire = self.wire();
        let mut pos = 0;
        for _ in 0..skip {
            pos += 1 + usize::from(wire[pos]);
        }
        &wire[pos..]
    }

    /// The parent name (one label stripped); `None` for the root.
    pub fn parent(&self) -> Option<Name> {
        if self.is_root() {
            None
        } else {
            Some(Name::from_wire(self.suffix_at(1), self.count - 1))
        }
    }

    /// Returns a child of this name: `label` prepended.
    ///
    /// # Errors
    ///
    /// Returns [`DnsError::BadName`] if the label is invalid.
    pub fn child(&self, label: &str) -> Result<Name, DnsError> {
        let mut out = Name::root();
        out.push_label(label.as_bytes())?;
        out.extend_wire(self.wire(), self.count)?;
        Ok(out)
    }

    /// Wire length when encoded without compression.
    pub fn wire_len(&self) -> usize {
        usize::from(self.len) + 1
    }

    /// Iterates over the name and all its ancestors up to the root:
    /// `pool.ntp.org`, `ntp.org`, `org`, `.`.
    pub fn self_and_ancestors(&self) -> impl Iterator<Item = Name> + '_ {
        std::iter::successors(Some(self.clone()), Name::parent)
    }
}

/// The labels of well-formed wire bytes, as raw byte slices.
struct LabelBytes<'a>(&'a [u8]);

impl<'a> Iterator for LabelBytes<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, rest) = self.0.split_first()?;
        let (label, rest) = rest.split_at(usize::from(len));
        self.0 = rest;
        Some(label)
    }
}

impl Default for Name {
    fn default() -> Self {
        Name::root()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.wire() == other.wire()
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // What `#[derive(Hash)]` over `Vec<String>` feeds: the length, then
        // each string's bytes and `str`'s 0xff terminator.
        state.write_usize(self.label_count());
        for label in self.label_bytes() {
            state.write(label);
            state.write_u8(0xff);
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.label_bytes().cmp(other.label_bytes())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Labels<'a>(&'a Name);
        impl fmt::Debug for Labels<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.labels()).finish()
            }
        }
        f.debug_struct("Name").field("labels", &Labels(self)).finish()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for (i, label) in self.labels().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            f.write_str(label)?;
        }
        Ok(())
    }
}

impl FromStr for Name {
    type Err = DnsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        Name::from_labels(s.split('.'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n: Name = "Pool.NTP.org.".parse().unwrap();
        assert_eq!(n.to_string(), "pool.ntp.org");
        assert_eq!(n.label_count(), 3);
    }

    #[test]
    fn root_parses_from_dot_and_empty() {
        assert!(Name::from_str(".").unwrap().is_root());
        assert!(Name::from_str("").unwrap().is_root());
        assert_eq!(Name::root().to_string(), ".");
    }

    #[test]
    fn subdomain_relation() {
        let pool: Name = "pool.ntp.org".parse().unwrap();
        let org: Name = "org".parse().unwrap();
        let child: Name = "0.pool.ntp.org".parse().unwrap();
        assert!(pool.is_subdomain_of(&pool));
        assert!(pool.is_subdomain_of(&org));
        assert!(child.is_subdomain_of(&pool));
        assert!(!org.is_subdomain_of(&pool));
        assert!(pool.is_subdomain_of(&Name::root()));
        // Same-length different name is not a subdomain.
        let other: Name = "pool.ntp.net".parse().unwrap();
        assert!(!other.is_subdomain_of(&pool));
    }

    #[test]
    fn parent_and_child() {
        let pool: Name = "pool.ntp.org".parse().unwrap();
        assert_eq!(pool.parent().unwrap().to_string(), "ntp.org");
        assert_eq!(pool.child("0").unwrap().to_string(), "0.pool.ntp.org");
        assert!(Name::root().parent().is_none());
    }

    #[test]
    fn oversize_label_rejected() {
        let long = "x".repeat(64);
        assert!(Name::from_labels([long.as_str()]).is_err());
        assert!(Name::from_labels(["ok", ""]).is_err());
    }

    #[test]
    fn oversize_name_rejected() {
        let label = "a".repeat(63);
        let labels = vec![label; 5]; // 5 * 64 + 1 > 255
        assert!(Name::from_labels(labels).is_err());
    }

    #[test]
    fn case_insensitive_equality_via_lowercasing() {
        let a: Name = "NS1.Pool.Ntp.Org".parse().unwrap();
        let b: Name = "ns1.pool.ntp.org".parse().unwrap();
        assert_eq!(a, b);
        #[allow(clippy::disallowed_types)] // test code (simlint R2 exempts tests)
        let set: std::collections::HashSet<Name> = [a].into_iter().collect();
        assert!(set.contains(&b));
    }

    #[test]
    fn ancestors_walk() {
        let n: Name = "a.b.c".parse().unwrap();
        let walk: Vec<String> = n.self_and_ancestors().map(|x| x.to_string()).collect();
        assert_eq!(walk, vec!["a.b.c", "b.c", "c", "."]);
    }

    #[test]
    fn long_names_spill_once_and_shrink_back_inline() {
        // 3 * 64 + 41 + 21 + 1 = 255 wire bytes: as long as a name gets.
        let (long, mid, short) = ("x".repeat(63), "y".repeat(40), "z".repeat(20));
        let name = Name::from_labels([&long, &long, &long, &mid, &short]).unwrap();
        assert_eq!(name.wire_len(), MAX_NAME_LEN);
        assert!(name.spill.is_some());
        assert!(name.child("w").is_err());
        let tail = name.self_and_ancestors().nth(4).unwrap();
        assert_eq!(tail.to_string(), short);
        assert!(tail.spill.is_none(), "a short ancestor is stored inline");
        assert!(name.is_subdomain_of(&tail));
        assert_eq!(Name::from_labels([&short]).unwrap(), tail);
    }

    #[test]
    fn non_utf8_labels_are_replaced_lossily() {
        let mut name = Name::root();
        name.push_label(&[b'A', 0xff, b'B']).unwrap();
        assert_eq!(name.labels().next(), Some("a\u{fffd}b"));
        // The replacement character's three bytes count towards the limit.
        let mut tight = Name::root();
        assert!(tight.push_label(&[0xff; 21]).is_ok());
        assert!(tight.push_label(&[0xff; 22]).is_err());
        assert_eq!(tight.label_count(), 1, "a rejected label leaves the name unchanged");
    }

    #[test]
    fn wire_len_counts_length_bytes_and_root() {
        let n: Name = "pool.ntp.org".parse().unwrap();
        // 1+4 + 1+3 + 1+3 + 1 = 14
        assert_eq!(n.wire_len(), 14);
        assert_eq!(Name::root().wire_len(), 1);
    }
}

//! Match tokens.
//!
//! A token is an ordered list of WMEs matching a prefix of a production's
//! positive condition elements (§2.2). Tokens are immutable and shared; a
//! join extends its left token by one WME, producing a fresh token. Identity
//! (for memory lookups and conjugate-pair detection) is the sequence of WME
//! timetags — structurally equal WMEs created at different times are
//! different elements.
//!
//! The token that reaches a terminal node *is* the instantiation (the
//! paper's word for a full match), so the type lives here, beside
//! [`Instantiation`](crate::Instantiation), and the matchers hand it to the
//! conflict set as it stands: no copy into a vector, and the conflict set
//! keys on the hash cached below.
//!
//! Representation: a parent-linked persistent list. Each join output shares
//! its parent's chain and allocates exactly one [`TokenNode`], so
//! `extended()` is O(1) instead of O(depth) — the paper's point that match
//! tasks are only 100–700 instructions makes token materialization the
//! dominant per-task cost otherwise. The identity hash is the Fx left fold
//! over the timetag sequence; because the fold is incremental
//! (`mix(parent_hash, timetag)`), it is computed once at construction and
//! every memory probe reads the cached word.

use crate::fxhash;
use crate::value::Value;
use crate::wme::WmeRef;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// One link in a token chain: the most recent WME plus the shared parent.
struct TokenNode {
    parent: Option<Arc<TokenNode>>,
    wme: WmeRef,
    /// Number of WMEs in the chain ending here (1-based).
    depth: u16,
    /// Fx fold of the timetag sequence root → here, cached at construction.
    hash: u64,
}

/// An ordered list of matched WMEs (positive condition elements only).
///
/// Reads like a slice of [`WmeRef`] (`len`, `get`, `first`, `[i]`, `iter`,
/// `for w in &token`), but the chain is linked back to front: `last_wme` and
/// [`iter_back`](Token::iter_back) are O(1) per element, an index walks
/// `len - 1 - i` links and the front-to-back [`iter`](Token::iter) an index
/// per element. Code that visits every WME more than once per token (an RHS
/// firing) takes [`wme_vec`](Token::wme_vec) once instead.
#[derive(Clone)]
pub struct Token {
    node: Option<Arc<TokenNode>>,
}

impl Token {
    /// The empty token (left input of the first join when the first CE is
    /// negated never occurs — parser forbids it — but the dummy top token is
    /// still useful in tests). Allocation-free.
    pub fn empty() -> Token {
        Token { node: None }
    }

    /// A one-WME token, as produced by the alpha network.
    pub fn single(wme: WmeRef) -> Token {
        Token::empty().extended(wme)
    }

    /// Extends this token with one more WME (join output). O(1): the parent
    /// chain is shared, one `TokenNode` is allocated.
    pub fn extended(&self, wme: WmeRef) -> Token {
        let (depth, hash) = match &self.node {
            Some(n) => (n.depth + 1, fxhash::mix(n.hash, wme.timetag)),
            None => (1, fxhash::mix(0, wme.timetag)),
        };
        Token {
            node: Some(Arc::new(TokenNode {
                parent: self.node.clone(),
                wme,
                depth,
                hash,
            })),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.node.as_ref().map_or(0, |n| n.depth as usize)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node.is_none()
    }

    /// The WME bound to positive CE `idx` (0-based from the front). Walks
    /// `len() - 1 - idx` parent links; tokens are at most a production's
    /// positive-CE count deep, so the walk is a handful of hops.
    #[inline]
    pub fn wme(&self, idx: u16) -> &WmeRef {
        let mut n = self.node.as_deref().expect("wme index out of range");
        debug_assert!((idx as usize) < n.depth as usize);
        while n.depth != idx + 1 {
            n = n.parent.as_deref().expect("wme index out of range");
        }
        &n.wme
    }

    /// The most recently matched WME (`wme(len-1)`), O(1).
    #[inline]
    pub fn last_wme(&self) -> Option<&WmeRef> {
        self.node.as_deref().map(|n| &n.wme)
    }

    /// The WME bound to positive CE `idx`, `None` past the end.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&WmeRef> {
        (idx < self.len()).then(|| self.wme(idx as u16))
    }

    /// The WME bound to the first CE (MEA's goal element).
    #[inline]
    pub fn first(&self) -> Option<&WmeRef> {
        self.get(0)
    }

    /// Iterates the WMEs front to back (CE order).
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            token: self,
            next: 0,
        }
    }

    /// Collects the WMEs front-to-back: one chain walk, for a reader that
    /// then indexes freely (one RHS firing).
    pub fn wme_vec(&self) -> Vec<WmeRef> {
        let mut v = Vec::with_capacity(self.len());
        v.extend(self.iter_back().cloned());
        v.reverse();
        v
    }

    /// Value of `token[ce].field(f)` — the join-test left operand.
    #[inline]
    pub fn value(&self, ce: u16, field: u16) -> Value {
        self.wme(ce).field(field)
    }

    /// Token identity: equal iff same timetag sequence. The cached hash and
    /// depth reject almost all non-equal pairs in two word compares; the
    /// chain walk confirms (hash collisions must not merge identities).
    #[inline]
    pub fn same_wmes(&self, other: &Token) -> bool {
        match (&self.node, &other.node) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                if a.depth != b.depth || a.hash != b.hash {
                    return false;
                }
                if Arc::ptr_eq(a, b) {
                    return true;
                }
                self.iter_back()
                    .zip(other.iter_back())
                    .all(|(x, y)| x.timetag == y.timetag)
            }
            _ => false,
        }
    }

    /// Fx hash of the timetag sequence (used for fast identity pre-checks).
    /// Cached at construction — reading it is free.
    #[inline]
    pub fn identity_hash(&self) -> u64 {
        self.node.as_ref().map_or(0, |n| n.hash)
    }

    pub fn timetags(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(self.len());
        v.extend(self.iter_back().map(|w| w.timetag));
        v.reverse();
        v
    }

    /// Compares the timetag sequences as `timetags().cmp(&other.timetags())`
    /// would (lexicographic from the front, a proper prefix is `Less`)
    /// without materialising either. The chains link back to front, so the
    /// walk aligns the two at the shorter length and keeps the difference
    /// nearest the front.
    pub fn cmp_timetags(&self, other: &Token) -> Ordering {
        let (la, lb) = (self.len(), other.len());
        let a = self.iter_back().skip(la.saturating_sub(lb));
        let b = other.iter_back().skip(lb.saturating_sub(la));
        let mut ord = la.cmp(&lb);
        for (x, y) in a.zip(b) {
            if x.timetag != y.timetag {
                ord = x.timetag.cmp(&y.timetag);
            }
        }
        ord
    }

    /// Iterates the chain back-to-front (most recent WME first): the cheap
    /// direction, for readers that do not care about CE order.
    #[inline]
    pub fn iter_back(&self) -> IterBack<'_> {
        IterBack {
            node: self.node.as_deref(),
        }
    }
}

/// Back-to-front iterator over a token's WMEs; see [`Token::iter_back`].
pub struct IterBack<'a> {
    node: Option<&'a TokenNode>,
}

impl<'a> Iterator for IterBack<'a> {
    type Item = &'a WmeRef;

    #[inline]
    fn next(&mut self) -> Option<&'a WmeRef> {
        let n = self.node?;
        self.node = n.parent.as_deref();
        Some(&n.wme)
    }
}

/// Front-to-back iterator over a token's WMEs; see [`Token::iter`].
pub struct Iter<'a> {
    token: &'a Token,
    next: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a WmeRef;

    fn next(&mut self) -> Option<&'a WmeRef> {
        let w = self.token.get(self.next)?;
        self.next += 1;
        Some(w)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.token.len() - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Token {
    type Item = &'a WmeRef;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Index<usize> for Token {
    type Output = WmeRef;

    fn index(&self, idx: usize) -> &WmeRef {
        self.get(idx).expect("token index out of range")
    }
}

impl FromIterator<WmeRef> for Token {
    /// Builds the token whose WMEs are `iter`'s, in order.
    fn from_iter<I: IntoIterator<Item = WmeRef>>(iter: I) -> Token {
        iter.into_iter().fold(Token::empty(), |t, w| t.extended(w))
    }
}

impl fmt::Debug for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tok[")?;
        for (i, t) in self.timetags().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolId;
    use crate::wme::Wme;

    fn wme(tag: u64) -> WmeRef {
        Wme::new(SymbolId(1), vec![Value::Int(tag as i64)], tag)
    }

    #[test]
    fn extend_grows() {
        let t = Token::single(wme(1)).extended(wme(2));
        assert_eq!(t.len(), 2);
        assert_eq!(t.wme(1).timetag, 2);
        assert_eq!(t.wme(0).timetag, 1);
        assert_eq!(t.last_wme().unwrap().timetag, 2);
    }

    #[test]
    fn identity_is_timetags() {
        let a = Token::single(wme(1)).extended(wme(2));
        let b = Token::single(wme(1)).extended(wme(2));
        let c = Token::single(wme(1)).extended(wme(3));
        assert!(a.same_wmes(&b));
        assert!(!a.same_wmes(&c));
        assert_eq!(a.identity_hash(), b.identity_hash());
    }

    #[test]
    fn cached_hash_matches_fold_of_timetags() {
        // The incremental hash must equal the flat fold over the sequence —
        // memories built before and after this representation change probe
        // the same lines.
        let mut t = Token::empty();
        for tag in [5u64, 9, 2, 40, 17] {
            t = t.extended(wme(tag));
            assert_eq!(t.identity_hash(), fxhash::hash_words(t.timetags()));
        }
    }

    #[test]
    fn value_reads_fields() {
        let t = Token::single(wme(7));
        assert_eq!(t.value(0, 0), Value::Int(7));
    }

    #[test]
    fn empty_token() {
        assert!(Token::empty().is_empty());
        assert_eq!(Token::empty().len(), 0);
        assert_eq!(Token::empty().identity_hash(), 0);
        assert!(Token::empty().same_wmes(&Token::empty()));
    }

    #[test]
    fn wme_vec_is_front_to_back() {
        let t = Token::single(wme(1)).extended(wme(2)).extended(wme(3));
        let tags: Vec<u64> = t.wme_vec().iter().map(|w| w.timetag).collect();
        assert_eq!(tags, vec![1, 2, 3]);
        assert_eq!(t.timetags(), vec![1, 2, 3]);
    }

    #[test]
    fn reads_like_a_slice() {
        let t = Token::single(wme(4)).extended(wme(9)).extended(wme(6));
        let front: Vec<u64> = t.iter().map(|w| w.timetag).collect();
        assert_eq!(front, vec![4, 9, 6]);
        assert_eq!(t.iter().len(), 3);
        let back: Vec<u64> = t.iter_back().map(|w| w.timetag).collect();
        assert_eq!(back, vec![6, 9, 4]);
        let mut by_ref = Vec::new();
        for w in &t {
            by_ref.push(w.timetag);
        }
        assert_eq!(by_ref, front);
        assert_eq!(t.first().unwrap().timetag, 4);
        assert_eq!(t.get(1).unwrap().timetag, 9);
        assert_eq!(t[2].timetag, 6);
        assert!(t.get(3).is_none());
        assert!(Token::empty().first().is_none());
        assert_eq!(Token::empty().iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "token index out of range")]
    fn index_past_the_end_panics() {
        let _ = &Token::single(wme(1))[1];
    }

    #[test]
    fn collect_round_trips() {
        let t = Token::single(wme(3)).extended(wme(1)).extended(wme(2));
        let u: Token = t.wme_vec().into_iter().collect();
        assert!(u.same_wmes(&t));
        assert_eq!(u.identity_hash(), t.identity_hash());
        let none: Token = Vec::<WmeRef>::new().into_iter().collect();
        assert!(none.is_empty());
    }

    #[test]
    fn cmp_timetags_is_vec_cmp() {
        let seqs: [&[u64]; 8] = [
            &[],
            &[1],
            &[2],
            &[1, 2],
            &[2, 1],
            &[1, 2, 3],
            &[1, 3, 2],
            &[7, 2, 3],
        ];
        for a in seqs {
            for b in seqs {
                let ta: Token = a.iter().map(|&t| wme(t)).collect();
                let tb: Token = b.iter().map(|&t| wme(t)).collect();
                assert_eq!(ta.cmp_timetags(&tb), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn shared_parent_chains_diverge() {
        let base = Token::single(wme(1)).extended(wme(2));
        let a = base.extended(wme(3));
        let b = base.extended(wme(4));
        assert_eq!(a.timetags(), vec![1, 2, 3]);
        assert_eq!(b.timetags(), vec![1, 2, 4]);
        assert!(!a.same_wmes(&b));
    }
}

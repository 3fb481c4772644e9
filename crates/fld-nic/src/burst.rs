//! The small owned list the RC transport hands its caller. In the NIC the
//! transport emits packets and completions into fixed on-die rings; here
//! one call's output sits inline in the returned value and touches the
//! heap only past [`INLINE`] entries (a coalesced ACK completing many
//! sends, a multi-MTU message, a go-back-N burst). DESIGN.md § 3.14.

/// Entries a [`Burst`] holds without allocating.
pub const INLINE: usize = 2;

/// An ordered list of `Copy` entries: the first [`INLINE`] in the value,
/// the rest on the heap. Collected from an iterator and drained with `for`
/// — it is its own by-value iterator, so neither building nor looping
/// moves a list that was just written (DESIGN.md § 3.14: what that costs).
///
/// ```
/// use fld_nic::burst::Burst;
///
/// let b: Burst<u32> = [7, 9, 11].into_iter().collect();
/// assert_eq!(b.len(), 3);
/// assert_eq!(Vec::from_iter(b), [7, 9, 11]);
/// ```
#[derive(Debug, Clone)]
pub struct Burst<T: Copy> {
    /// Entries collected, and how many of them `next` has handed out.
    pushed: usize,
    taken: usize,
    /// Entries `0..INLINE`; `None` from `pushed` on.
    inline: [Option<T>; INLINE],
    /// Entries `INLINE..pushed`.
    spill: Vec<T>,
}

impl<T: Copy> Burst<T> {
    /// An empty list.
    #[inline]
    pub fn new() -> Self {
        Burst {
            pushed: 0,
            taken: 0,
            inline: [None; INLINE],
            spill: Vec::new(),
        }
    }

    /// Entries not yet taken.
    #[inline]
    pub fn len(&self) -> usize {
        self.pushed - self.taken
    }

    /// Whether no entry is left.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Copy> Default for Burst<T> {
    fn default() -> Self {
        Burst::new()
    }
}

impl<T: Copy> FromIterator<T> for Burst<T> {
    /// One exit per inline fill level, each a struct literal of values
    /// that were never in memory: the list is written once, straight into
    /// the caller's return slot.
    #[inline]
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let of = |pushed, inline, spill| Burst {
            pushed,
            taken: 0,
            inline,
            spill,
        };
        let Some(first) = iter.next() else {
            return of(0, [None, None], Vec::new());
        };
        let Some(second) = iter.next() else {
            return of(1, [Some(first), None], Vec::new());
        };
        let Some(third) = iter.next() else {
            return of(2, [Some(first), Some(second)], Vec::new());
        };
        let spill: Vec<T> = std::iter::once(third).chain(iter).collect();
        of(INLINE + spill.len(), [Some(first), Some(second)], spill)
    }
}

impl<T: Copy> Iterator for Burst<T> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        // Count first: an empty list's slots are never read.
        if self.taken == self.pushed {
            return None;
        }
        let item = match self.inline.get(self.taken) {
            Some(slot) => *slot,
            None => self.spill.get(self.taken - INLINE).copied(),
        };
        self.taken += 1;
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len(), Some(self.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_order_across_the_spill() {
        for n in 0..=3 * INLINE {
            let mut b: Burst<usize> = (0..n).collect();
            assert_eq!(b.len(), n);
            assert_eq!(b.is_empty(), n == 0);
            assert_eq!(b.size_hint(), (n, Some(n)));
            let got: Vec<usize> = b.by_ref().collect();
            assert_eq!(got, (0..n).collect::<Vec<_>>(), "by value at {n}");
            assert_eq!(b.next(), None, "fused at {n}");
            assert_eq!(b.len(), 0);
        }
        assert_eq!(Burst::<u8>::new().next(), None);
    }
}

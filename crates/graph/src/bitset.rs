//! Fixed-capacity bit sets: the flat [`BitMatrix`] and the borrowed
//! [`BitRow`] views of its rows.
//!
//! Both share one set of word-slice kernels (intersection, difference,
//! popcount, iteration), so a reachability or delay row stored inside a
//! matrix reads like a stand-alone set without owning a heap block of
//! its own.

use std::fmt;

/// The indices of the set bits of `word`, the `w`-th word of a row, in
/// increasing order.
fn word_bits(w: usize, mut word: u64) -> impl Iterator<Item = usize> + Clone {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            w * 64 + bit
        })
    })
}

/// Sets bit `index`; returns `true` if it was clear.
fn set_bit(words: &mut [u64], index: usize) -> bool {
    let (w, b) = (index / 64, index % 64);
    let was = words[w] & (1 << b) != 0;
    words[w] |= 1 << b;
    !was
}

/// Clears bit `index`; returns `true` if it was set.
fn clear_bit(words: &mut [u64], index: usize) -> bool {
    let (w, b) = (index / 64, index % 64);
    let was = words[w] & (1 << b) != 0;
    words[w] &= !(1 << b);
    was
}

/// A borrowed, read-only set of `usize` indices below a fixed capacity:
/// one row of a reachability or delay matrix.
///
/// The view is `Copy` and two views compare equal when they have the
/// same capacity and the same elements.
///
/// # Examples
///
/// ```
/// use rtpool_graph::DagBuilder;
///
/// # fn main() -> Result<(), rtpool_graph::GraphError> {
/// let mut b = DagBuilder::new();
/// let (fork, join) = b.fork_join(1, &[2, 2], 1, false)?;
/// let dag = b.build()?;
/// let row = dag.reachability().descendants(fork);
/// assert_eq!(row.len(), 3);
/// assert!(row.contains(join.index()));
/// assert_eq!(row.iter().next(), Some(join.index()));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitRow<'a> {
    words: &'a [u64],
    capacity: usize,
}

impl<'a> BitRow<'a> {
    /// A view of `words` as a set of capacity `capacity`: index `i` is
    /// bit `i % 64` of word `i / 64`. Bits at and past `capacity` must be
    /// clear. A caller that keeps many rows in one flat block (one per
    /// core, say) hands them out this way without a set of its own per
    /// row.
    ///
    /// # Panics
    ///
    /// Panics unless `words` holds exactly `⌈capacity/64⌉` words.
    ///
    /// # Examples
    ///
    /// ```
    /// use rtpool_graph::BitRow;
    ///
    /// let block = [0b101, 1 << 6, 0b10, 0];
    /// let row = BitRow::from_words(&block[2..], 100);
    /// assert_eq!(row.iter().collect::<Vec<_>>(), vec![1]);
    /// assert_eq!(BitRow::from_words(&block[..2], 71).len(), 3);
    /// ```
    #[must_use]
    pub fn from_words(words: &'a [u64], capacity: usize) -> Self {
        assert_eq!(
            words.len(),
            capacity.div_ceil(64),
            "a row of capacity {capacity} takes {} words",
            capacity.div_ceil(64)
        );
        BitRow { words, capacity }
    }

    /// The capacity (exclusive upper bound on storable indices).
    #[must_use]
    pub fn capacity(self) -> usize {
        self.capacity
    }

    /// Returns `true` if `index` is in the set.
    ///
    /// Out-of-range indices are reported as absent.
    #[must_use]
    pub fn contains(self, index: usize) -> bool {
        index < self.capacity && self.words[index / 64] & (1 << (index % 64)) != 0
    }

    /// Number of elements in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set contains no elements.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the contained indices in increasing order.
    pub fn iter(self) -> Iter<'a> {
        Iter {
            words: self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The indices in both `self` and `other`, in increasing order, read
    /// word by word without building the intersection.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub(crate) fn intersection(
        self,
        other: BitRow<'a>,
    ) -> impl Iterator<Item = usize> + Clone + 'a {
        let other = self.same_capacity(other);
        self.words
            .iter()
            .zip(other)
            .enumerate()
            .flat_map(|(w, (&a, &b))| word_bits(w, a & b))
    }

    /// The indices in `self` but in neither `a` nor `b`, in increasing
    /// order, read word by word without building the difference.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn minus(self, a: BitRow<'a>, b: BitRow<'a>) -> impl Iterator<Item = usize> + 'a {
        let (a, b) = (self.same_capacity(a), self.same_capacity(b));
        self.words
            .iter()
            .zip(a.iter().zip(b))
            .enumerate()
            .flat_map(|(w, (&s, (&a, &b)))| word_bits(w, s & !(a | b)))
    }

    /// The words of `other`, after checking it has this view's capacity.
    fn same_capacity<'b>(self, other: BitRow<'b>) -> &'b [u64] {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        other.words
    }
}

impl fmt::Debug for BitRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for BitRow<'a> {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the indices stored in a [`BitRow`], in increasing order.
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// A bit relation of `rows` rows over `n` node indices in one heap
/// block: `rows` rows of `stride = ⌈n/64⌉` words each, row-major.
///
/// Rows are handed out as [`BitRow`] views and written in place, so a
/// transitive closure or a delay profile costs one allocation whatever
/// the node count.
#[derive(Clone, Debug)]
pub(crate) struct BitMatrix {
    words: Vec<u64>,
    n: usize,
    stride: usize,
}

impl BitMatrix {
    /// An empty `n × n` relation.
    pub(crate) fn new(n: usize) -> Self {
        BitMatrix::with_rows(n, n)
    }

    /// An empty relation of `rows` rows over `n` columns.
    pub(crate) fn with_rows(rows: usize, n: usize) -> Self {
        let stride = n.div_ceil(64);
        BitMatrix {
            words: vec![0; rows * stride],
            n,
            stride,
        }
    }

    /// Number of columns: the capacity of every row.
    pub(crate) fn node_count(&self) -> usize {
        self.n
    }

    /// Row `i` as a borrowed set.
    pub(crate) fn row(&self, i: usize) -> BitRow<'_> {
        BitRow {
            words: &self.words[i * self.stride..(i + 1) * self.stride],
            capacity: self.n,
        }
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Returns `true` if column `j` is set in row `i`.
    pub(crate) fn contains(&self, i: usize, j: usize) -> bool {
        self.row(i).contains(j)
    }

    /// Sets column `j` of row `i`; returns `true` if it was clear.
    pub(crate) fn insert(&mut self, i: usize, j: usize) -> bool {
        assert!(j < self.n, "bit index {j} out of range");
        set_bit(self.row_mut(i), j)
    }

    /// Clears column `j` of row `i`; returns `true` if it was set.
    pub(crate) fn remove(&mut self, i: usize, j: usize) -> bool {
        assert!(j < self.n, "bit index {j} out of range");
        clear_bit(self.row_mut(i), j)
    }

    /// Overwrites row `i` with `base − a − b` in one pass over the words
    /// and returns the row's size.
    ///
    /// # Panics
    ///
    /// Panics if a capacity differs from the matrix's.
    pub(crate) fn set_row_minus(
        &mut self,
        i: usize,
        base: BitRow<'_>,
        a: BitRow<'_>,
        b: BitRow<'_>,
    ) -> usize {
        let row = self.row(i);
        let (base, a, b) = (
            row.same_capacity(base),
            row.same_capacity(a),
            row.same_capacity(b),
        );
        let mut count = 0;
        for (((dst, &s), &a), &b) in self.row_mut(i).iter_mut().zip(base).zip(a).zip(b) {
            *dst = s & !(a | b);
            count += dst.count_ones() as usize;
        }
        count
    }

    /// The words per row.
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// The rows as words for a kernel that takes the stride as a value.
    /// Passing the literal `1` to a kernel inlined where the stride is
    /// known to be one lets the compiler fold every row offset.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is not this matrix's.
    pub(crate) fn rows_mut(&mut self, stride: usize) -> RowsMut<'_> {
        assert_eq!(stride, self.stride, "stride mismatch");
        RowsMut {
            words: &mut self.words,
            stride,
        }
    }
}

/// The rows of a [`BitMatrix`], writable, with the stride as a plain
/// value (see [`BitMatrix::rows_mut`]).
pub(crate) struct RowsMut<'a> {
    words: &'a mut [u64],
    stride: usize,
}

impl RowsMut<'_> {
    /// Row `dst` gains column `col` and every column of row `src`, in
    /// one pass over the words: the closure step "`v` reaches `w` and
    /// everything `w` reaches", with `w` the node of row `src` and
    /// column `col`. Returns `true` if `col` was clear in row `dst`.
    #[inline(always)]
    pub(crate) fn absorb(&mut self, dst: usize, src: usize, col: usize) -> bool {
        debug_assert_ne!(dst, src, "a row cannot absorb itself");
        let (d, s) = (dst * self.stride, src * self.stride);
        let bit = 1 << (col % 64);
        let fresh = self.words[d + col / 64] & bit == 0;
        for i in 0..self.stride {
            self.words[d + i] |= self.words[s + i];
        }
        self.words[d + col / 64] |= bit;
        fresh
    }

    /// The first word of row `i`, for a caller that lends an unused row
    /// out as a counter and leaves it zero again.
    #[inline(always)]
    pub(crate) fn first_word_mut(&mut self, i: usize) -> &mut u64 {
        &mut self.words[i * self.stride]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut m = BitMatrix::with_rows(1, 130);
        assert!(m.insert(0, 0));
        assert!(m.insert(0, 63));
        assert!(m.insert(0, 64));
        assert!(m.insert(0, 129));
        assert!(!m.insert(0, 64), "double insert reports false");
        assert!([0, 63, 64, 129].iter().all(|&j| m.contains(0, j)));
        assert!(!m.contains(0, 1));
        assert!(m.remove(0, 63));
        assert!(!m.remove(0, 63));
        assert!(!m.contains(0, 63));
        assert_eq!(m.row(0).len(), 3);
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let row = BitRow::from_words(&[!0], 10);
        assert!(!row.contains(10));
        assert!(!row.contains(usize::MAX));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        BitMatrix::with_rows(1, 10).insert(0, 10);
    }

    #[test]
    fn iter_order_is_increasing() {
        let mut m = BitMatrix::with_rows(1, 200);
        for j in [199, 0, 64, 65, 5] {
            m.insert(0, j);
        }
        assert_eq!(m.row(0).iter().collect::<Vec<_>>(), vec![0, 5, 64, 65, 199]);
    }

    #[test]
    fn empty_row_iterates_nothing() {
        let row = BitRow::from_words(&[], 0);
        assert_eq!(row.iter().count(), 0);
        assert!(row.is_empty());
        assert_eq!(row.len(), 0);
        assert_eq!(format!("{:?}", BitMatrix::new(4).row(2)), "{}");
    }

    #[test]
    fn views_of_the_same_words_compare_equal() {
        let mut m = BitMatrix::new(70);
        m.insert(3, 69);
        m.insert(3, 1);
        m.insert(4, 1);
        let words = [1 << 1, 1 << 5];
        assert_eq!(BitRow::from_words(&words, 70), m.row(3));
        assert_ne!(BitRow::from_words(&words, 70), m.row(4));
        assert_eq!(format!("{:?}", m.row(3)), "{1, 69}");
        assert_eq!(m.row(3).len(), 2);
    }

    #[test]
    fn matrix_rows_absorb_in_place_in_both_directions() {
        let mut m = BitMatrix::new(130);
        m.insert(0, 129);
        m.insert(2, 64);
        let mut rows = m.rows_mut(3);
        assert!(rows.absorb(2, 0, 0));
        assert!(rows.absorb(0, 2, 2));
        assert!(!rows.absorb(0, 2, 2), "column 2 was set already");
        assert!(rows.absorb(1, 129, 129));
        assert_eq!(m.row(2).iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        assert_eq!(m.row(0).iter().collect::<Vec<_>>(), vec![0, 2, 64, 129]);
        assert_eq!(m.row(1).iter().collect::<Vec<_>>(), vec![129]);
        assert!(m.remove(0, 64) && !m.remove(0, 64));
        assert!(!m.contains(0, 64) && m.contains(2, 64));
    }

    #[test]
    fn intersection_reads_both_rows_word_by_word() {
        let mut m = BitMatrix::new(130);
        for j in [1, 63, 64, 100, 129] {
            m.insert(0, j);
        }
        for j in [0, 63, 100, 128, 129] {
            m.insert(1, j);
        }
        let both = m.row(0).intersection(m.row(1));
        assert_eq!(both.clone().count(), 3);
        assert_eq!(both.collect::<Vec<_>>(), vec![63, 100, 129]);
    }

    /// Rows 0-2 of a 130-column matrix: a base row and the two rows
    /// subtracted from it. Words 0 and 1 are full, word 2 holds bits
    /// 128-129.
    fn base_and_two_rows() -> BitMatrix {
        let mut m = BitMatrix::new(130);
        for j in [0, 5, 63, 64, 70, 100, 127, 128, 129] {
            m.insert(0, j);
        }
        for j in [5, 64, 128] {
            m.insert(1, j);
        }
        for j in [63, 64, 101, 129] {
            m.insert(2, j);
        }
        m
    }

    #[test]
    fn minus_reads_three_rows_word_by_word() {
        let m = base_and_two_rows();
        let rest = m.row(0).minus(m.row(1), m.row(2));
        assert_eq!(rest.collect::<Vec<_>>(), vec![0, 70, 100, 127]);
        let all = BitRow::from_words(&[!0, !0, 0b11], 130);
        let empty = m.row(3);
        assert_eq!(all.minus(empty, empty).count(), 130);
        assert_eq!(all.minus(m.row(0), m.row(0)).count(), 121);
        assert_eq!(empty.minus(m.row(1), m.row(2)).count(), 0);
    }

    #[test]
    fn set_row_minus_writes_and_counts_the_difference() {
        let m = base_and_two_rows();
        let mut out = BitMatrix::new(130);
        out.insert(1, 7);
        let count = out.set_row_minus(1, m.row(0), m.row(1), m.row(2));
        assert_eq!(count, 4);
        let expected = m.row(0).minus(m.row(1), m.row(2));
        assert!(out.row(1).iter().eq(expected));
        assert_eq!(
            out.row(1),
            BitRow::from_words(&out.words[out.stride..][..out.stride], 130)
        );
    }

    #[test]
    #[should_panic(expected = "takes 3 words")]
    fn from_words_rejects_a_block_of_the_wrong_length() {
        let _ = BitRow::from_words(&[0; 2], 129);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn minus_rejects_a_row_of_another_capacity() {
        let (a, b) = (BitMatrix::new(130), BitMatrix::new(129));
        let _ = a.row(0).minus(a.row(0), b.row(0));
    }
}

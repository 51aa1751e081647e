//! The workspace's one hash kernel, [`WordHash`].

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;

/// The workspace's one hash kernel: four multiply-rotate lanes over a
/// sequence of `u64` words.
///
/// Word `k` goes to lane `k mod 4`, which becomes `(lane ^ word) * P1`,
/// rotated left by 29. The four lanes are folded into the word count,
/// and an avalanche step (two xor-shift-multiplies and a last
/// xor-shift) finishes the value. Every step is a bijection of the
/// state it changes — xor with a fixed word, multiplication by an odd
/// constant, rotation, xor-shift — so two inputs of equal length that
/// differ in a single word always hash apart.
///
/// [`Dag::content_hash`](crate::Dag::content_hash), the admission
/// service's set hash and its recipe fingerprint are each one
/// `WordHash`, fed their own words. It is not keyed and not
/// cryptographic: an input can be chosen to collide with another, so
/// whoever answers from a hash match compares what was hashed first
/// (the admission service's interner does).
///
/// ```
/// use rtpool_graph::WordHash;
///
/// let mut a = WordHash::new(0);
/// a.words(&[1, 2, 3]);
/// let mut b = WordHash::new(0);
/// for w in [1, 2, 3] {
///     b.word(w);
/// }
/// assert_eq!(a.finish(), b.finish());
/// b.word(0);
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Clone, Debug)]
pub struct WordHash {
    lanes: [u64; 4],
    /// Words fed since the last lane-0 boundary, waiting to be absorbed
    /// four at a time: `pending[k]` goes to lane `k`.
    pending: [u64; 4],
    words: u64,
}

/// One step of a lane.
#[inline(always)]
fn absorb(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(P1).rotate_left(29)
}

impl WordHash {
    /// An empty hash whose fourth lane starts at `seed` (the other three
    /// start at fixed odd constants).
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        WordHash {
            lanes: [P1, P2, P3, seed],
            pending: [0; 4],
            words: 0,
        }
    }

    /// Absorbs four words, word `k` into lane `k`.
    #[inline(always)]
    fn block(&mut self, block: [u64; 4]) {
        for (lane, w) in self.lanes.iter_mut().zip(block) {
            *lane = absorb(*lane, w);
        }
    }

    /// Feeds one word. It waits in a four-word buffer, which is absorbed
    /// into the four lanes at once when it fills.
    #[inline]
    pub fn word(&mut self, word: u64) {
        self.pending[(self.words & 3) as usize] = word;
        self.words += 1;
        if self.words & 3 == 0 {
            self.block(self.pending);
        }
    }

    /// Feeds `words` in order: one at a time up to a lane-0 boundary,
    /// then straight from the slice, four lanes per step.
    #[inline]
    pub fn words(&mut self, words: &[u64]) {
        let lead = ((4 - (self.words & 3)) & 3) as usize;
        let (head, rest) = words.split_at(lead.min(words.len()));
        for &w in head {
            self.word(w);
        }
        let mut blocks = rest.chunks_exact(4);
        for block in &mut blocks {
            self.block(block.try_into().expect("four words"));
        }
        self.words += (rest.len() - blocks.remainder().len()) as u64;
        for &w in blocks.remainder() {
            self.word(w);
        }
    }

    /// Feeds `bytes` as little-endian words, the last one zero-padded,
    /// then their length in bytes (so that paddings stay apart).
    pub fn bytes(&mut self, bytes: &[u8]) {
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8 bytes"));
        let mut words = bytes.chunks_exact(8);
        if self.words & 3 == 0 {
            let mut blocks = bytes.chunks_exact(32);
            for block in &mut blocks {
                let mut w = block.chunks_exact(8).map(word);
                self.block(std::array::from_fn(|_| w.next().expect("four words")));
            }
            self.words += (bytes.len() / 32 * 4) as u64;
            words = blocks.remainder().chunks_exact(8);
        }
        for w in &mut words {
            self.word(word(w));
        }
        if !words.remainder().is_empty() {
            let mut last = [0u8; 8];
            last[..words.remainder().len()].copy_from_slice(words.remainder());
            self.word(u64::from_le_bytes(last));
        }
        self.word(bytes.len() as u64);
    }

    /// The hash of the words fed so far: the words still waiting are
    /// absorbed into their lanes, the lanes are folded into the word
    /// count, and the result is avalanched.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        let waiting = (self.words & 3) as usize;
        for (lane, &w) in lanes.iter_mut().zip(&self.pending[..waiting]) {
            *lane = absorb(*lane, w);
        }
        let mut h = lanes.iter().fold(self.words, |h, &lane| {
            (h.rotate_left(27) ^ lane).wrapping_mul(P2)
        });
        h = (h ^ (h >> 33)).wrapping_mul(P2);
        h = (h ^ (h >> 29)).wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_at_a_time(seed: u64, words: &[u64]) -> u64 {
        let mut h = WordHash::new(seed);
        for &w in words {
            h.word(w);
        }
        h.finish()
    }

    #[test]
    fn every_feed_is_the_word_sequence() {
        let words: Vec<u64> = (0..23u64).map(|i| i.wrapping_mul(P3) ^ (i << 40)).collect();
        for split in 0..words.len() {
            let mut h = WordHash::new(7);
            h.words(&words[..split]);
            h.words(&words[split..]);
            assert_eq!(h.finish(), one_at_a_time(7, &words), "split at {split}");
        }
        let bytes: Vec<u8> = (0..77u8).collect();
        for len in 0..bytes.len() {
            for lead in 0..5 {
                let mut h = WordHash::new(1);
                h.words(&words[..lead]);
                h.bytes(&bytes[..len]);
                let mut want: Vec<u64> = words[..lead].to_vec();
                for chunk in bytes[..len].chunks(8) {
                    let mut w = [0u8; 8];
                    w[..chunk.len()].copy_from_slice(chunk);
                    want.push(u64::from_le_bytes(w));
                }
                want.push(len as u64);
                assert_eq!(
                    h.finish(),
                    one_at_a_time(1, &want),
                    "{lead} words, {len} bytes"
                );
            }
        }
    }

    #[test]
    fn one_changed_word_always_changes_the_hash() {
        let words: Vec<u64> = (0..9u64).collect();
        let base = one_at_a_time(0, &words);
        for k in 0..words.len() {
            for bit in [0, 1, 31, 32, 63] {
                let mut changed = words.clone();
                changed[k] ^= 1 << bit;
                assert_ne!(one_at_a_time(0, &changed), base, "word {k}, bit {bit}");
            }
        }
        // Trailing zero words are told apart by the count.
        assert_ne!(one_at_a_time(0, &[]), one_at_a_time(0, &[0]));
        assert_ne!(one_at_a_time(0, &[0]), one_at_a_time(0, &[0, 0]));
    }
}

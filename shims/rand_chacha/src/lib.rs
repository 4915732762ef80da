//! Offline implementation of the ChaCha8 random number generator against
//! the local `rand` shim's traits.
//!
//! This is a faithful ChaCha core (Bernstein's quarter-round, 8 rounds,
//! 64-bit block counter) keyed from a 32-byte seed. It promises
//! determinism for a fixed seed within this workspace, not stream-level
//! bit compatibility with the upstream `rand_chacha` crate.
//!
//! A refill produces four consecutive blocks at once. On x86_64 an SSE2
//! kernel computes them with one block per vector lane; elsewhere the
//! portable one-block function runs four times. Both give the same
//! stream, word for word, as generating one block at a time.

use rand::{RngCore, SeedableRng};

/// Words in one ChaCha block.
const BLOCK_WORDS: usize = 16;
/// Blocks produced per refill.
const BLOCKS: usize = 4;
/// Words buffered per refill.
const BUF_WORDS: usize = BLOCK_WORDS * BLOCKS;

/// ChaCha with 8 rounds — the annealer's reproducible workhorse rng.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    /// Block counter of the next refill's first block.
    counter: u64,
    /// Blocks `counter - 4 ..= counter - 1`, in stream order.
    buf: [u32; BUF_WORDS],
    /// Next unread index into `buf`; `BUF_WORDS` means exhausted.
    idx: usize,
}

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[cfg(any(test, not(target_arch = "x86_64")))]
#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// One ChaCha8 block at `counter` (nonce zero: one stream per key). The
/// portable kernel, and the oracle the vector kernel is tested against.
#[cfg(any(test, not(target_arch = "x86_64")))]
fn block(key: &[u32; 8], counter: u64) -> [u32; BLOCK_WORDS] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    let input = state;
    for _ in 0..4 {
        // a double round: 4 column rounds + 4 diagonal rounds
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for (o, i) in state.iter_mut().zip(&input) {
        *o = o.wrapping_add(*i);
    }
    state
}

/// Blocks `counter .. counter + 4` into `out`, in stream order.
#[cfg(not(target_arch = "x86_64"))]
fn blocks4(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    for (j, dst) in out.chunks_exact_mut(BLOCK_WORDS).enumerate() {
        dst.copy_from_slice(&block(key, counter.wrapping_add(j as u64)));
    }
}

/// Blocks `counter .. counter + 4` into `out`, in stream order.
#[cfg(target_arch = "x86_64")]
fn blocks4(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    // SAFETY: SSE2 is part of the x86_64 baseline, so every x86_64 CPU
    // this code runs on has the target feature the kernel enables.
    unsafe { sse2::blocks4(key, counter, out) }
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{BLOCK_WORDS, BUF_WORDS, SIGMA};
    use core::arch::x86_64::*;

    /// `x <<< n` in every 32-bit lane (`r` = 32 − n).
    macro_rules! rotl {
        ($x:expr, 16) => {
            // swapping the 16-bit halves of each lane is a rotate by 16
            _mm_shufflehi_epi16::<0b10_11_00_01>(_mm_shufflelo_epi16::<0b10_11_00_01>($x))
        };
        ($x:expr, $n:literal, $r:literal) => {{
            let x = $x;
            _mm_or_si128(_mm_slli_epi32::<$n>(x), _mm_srli_epi32::<$r>(x))
        }};
    }

    macro_rules! quarter_round {
        ($s:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $s[$a] = _mm_add_epi32($s[$a], $s[$b]);
            $s[$d] = rotl!(_mm_xor_si128($s[$d], $s[$a]), 16);
            $s[$c] = _mm_add_epi32($s[$c], $s[$d]);
            $s[$b] = rotl!(_mm_xor_si128($s[$b], $s[$c]), 12, 20);
            $s[$a] = _mm_add_epi32($s[$a], $s[$b]);
            $s[$d] = rotl!(_mm_xor_si128($s[$d], $s[$a]), 8, 24);
            $s[$c] = _mm_add_epi32($s[$c], $s[$d]);
            $s[$b] = rotl!(_mm_xor_si128($s[$b], $s[$c]), 7, 25);
        };
    }

    /// Four ChaCha8 blocks with one block per lane: vector `w` holds
    /// state word `w` of blocks `counter + 0 ..= counter + 3`. Calling it
    /// is `unsafe` only because of the target feature: the CPU must have
    /// SSE2.
    #[target_feature(enable = "sse2")]
    pub(super) fn blocks4(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        let splat = |w: u32| _mm_set1_epi32(w as i32);
        // each lane carries its own counter into the high word
        let c = [0u64, 1, 2, 3].map(|l| counter.wrapping_add(l));
        let lo = _mm_set_epi32(c[3] as i32, c[2] as i32, c[1] as i32, c[0] as i32);
        let hi = _mm_set_epi32(
            (c[3] >> 32) as i32,
            (c[2] >> 32) as i32,
            (c[1] >> 32) as i32,
            (c[0] >> 32) as i32,
        );
        let zero = _mm_setzero_si128();
        let input = [
            splat(SIGMA[0]),
            splat(SIGMA[1]),
            splat(SIGMA[2]),
            splat(SIGMA[3]),
            splat(key[0]),
            splat(key[1]),
            splat(key[2]),
            splat(key[3]),
            splat(key[4]),
            splat(key[5]),
            splat(key[6]),
            splat(key[7]),
            lo,
            hi,
            zero,
            zero,
        ];
        let mut s = input;
        for _ in 0..4 {
            quarter_round!(s, 0, 4, 8, 12);
            quarter_round!(s, 1, 5, 9, 13);
            quarter_round!(s, 2, 6, 10, 14);
            quarter_round!(s, 3, 7, 11, 15);
            quarter_round!(s, 0, 5, 10, 15);
            quarter_round!(s, 1, 6, 11, 12);
            quarter_round!(s, 2, 7, 8, 13);
            quarter_round!(s, 3, 4, 9, 14);
        }
        for (v, i) in s.iter_mut().zip(&input) {
            *v = _mm_add_epi32(*v, *i);
        }
        // Transpose each group of four words from word-major lanes to
        // block-major order: block `l`'s words `4g .. 4g + 4`.
        for g in 0..BLOCK_WORDS / 4 {
            let (a, b, c, d) = (s[4 * g], s[4 * g + 1], s[4 * g + 2], s[4 * g + 3]);
            let ab_lo = _mm_unpacklo_epi32(a, b);
            let cd_lo = _mm_unpacklo_epi32(c, d);
            let ab_hi = _mm_unpackhi_epi32(a, b);
            let cd_hi = _mm_unpackhi_epi32(c, d);
            let lanes = [
                _mm_unpacklo_epi64(ab_lo, cd_lo),
                _mm_unpackhi_epi64(ab_lo, cd_lo),
                _mm_unpacklo_epi64(ab_hi, cd_hi),
                _mm_unpackhi_epi64(ab_hi, cd_hi),
            ];
            for (l, v) in lanes.into_iter().enumerate() {
                let dst: &mut [u32; 4] = (&mut out[l * BLOCK_WORDS + 4 * g..][..4])
                    .try_into()
                    .expect("a slice of length 4");
                // SAFETY: `dst` is an exclusively borrowed, bounds-checked
                // run of four `u32`s, 16 writable bytes, and the store has
                // no alignment requirement.
                unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
            }
        }
    }
}

/// Number of `u32` words in a serialized [`ChaCha8Rng`] state
/// (8 key words + 2 counter halves + 16 buffer words + 1 buffer index).
pub const CHACHA_STATE_WORDS: usize = 27;

impl ChaCha8Rng {
    /// Exports the complete generator state — key, block counter, the
    /// current output block, and the next unread index — as a flat word
    /// array. Restoring via [`ChaCha8Rng::from_state_words`] resumes the
    /// stream bit-exactly mid-block, which is what checkpoint/resume of
    /// a seeded search needs.
    ///
    /// The words are those of a generator that makes one block per
    /// refill, at the same stream position: the current block is the
    /// one the next word comes from, or the one just finished at a block
    /// boundary, and the counter is that block's plus one.
    pub fn state_words(&self) -> [u32; CHACHA_STATE_WORDS] {
        let (blk, idx) = match self.idx {
            0 => (0, 0),
            i => ((i - 1) / BLOCK_WORDS, (i - 1) % BLOCK_WORDS + 1),
        };
        let counter = self.counter.wrapping_sub((BLOCKS - 1 - blk) as u64);
        let mut w = [0u32; CHACHA_STATE_WORDS];
        w[..8].copy_from_slice(&self.key);
        w[8] = counter as u32;
        w[9] = (counter >> 32) as u32;
        w[10..26].copy_from_slice(&self.buf[blk * BLOCK_WORDS..][..BLOCK_WORDS]);
        w[26] = idx as u32;
        w
    }

    /// Rebuilds a generator from [`ChaCha8Rng::state_words`] output.
    /// The buffer index is clamped to the exhausted position so a
    /// corrupted word cannot cause an out-of-bounds read.
    pub fn from_state_words(w: &[u32; CHACHA_STATE_WORDS]) -> Self {
        let mut key = [0u32; 8];
        key.copy_from_slice(&w[..8]);
        let counter = w[8] as u64 | ((w[9] as u64) << 32);
        // The saved block goes first and the three blocks after it are
        // made now, so that exporting again gives back exactly `w`.
        let mut buf = [0u32; BUF_WORDS];
        buf[..BLOCK_WORDS].copy_from_slice(&w[10..26]);
        let mut next = [0u32; BUF_WORDS];
        blocks4(&key, counter, &mut next);
        buf[BLOCK_WORDS..].copy_from_slice(&next[..BUF_WORDS - BLOCK_WORDS]);
        Self {
            key,
            counter: counter.wrapping_add(BLOCKS as u64 - 1),
            buf,
            idx: (w[26] as usize).min(BLOCK_WORDS),
        }
    }

    #[inline(never)]
    fn refill(&mut self) {
        blocks4(&self.key, self.counter, &mut self.buf);
        self.idx = 0;
        self.counter = self.counter.wrapping_add(BLOCKS as u64);
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx >= BUF_WORDS {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.idx;
        if let Some(&[lo, hi]) = self.buf.get(i..i + 2) {
            self.idx = i + 2;
            return lo as u64 | ((hi as u64) << 32);
        }
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (w, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *w = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        Self {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            idx: BUF_WORDS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The one-block-per-refill generator: the reference for the stream
    /// and for the `state_words` layout.
    struct OneBlock {
        key: [u32; 8],
        counter: u64,
        buf: [u32; BLOCK_WORDS],
        idx: usize,
    }

    impl OneBlock {
        fn new(key: [u32; 8], counter: u64) -> Self {
            Self {
                key,
                counter,
                buf: [0; BLOCK_WORDS],
                idx: BLOCK_WORDS,
            }
        }

        fn of(rng: &ChaCha8Rng) -> Self {
            Self::new(rng.key, rng.counter)
        }

        fn next_u32(&mut self) -> u32 {
            if self.idx >= BLOCK_WORDS {
                self.buf = block(&self.key, self.counter);
                self.idx = 0;
                self.counter = self.counter.wrapping_add(1);
            }
            self.idx += 1;
            self.buf[self.idx - 1]
        }

        fn state_words(&self) -> [u32; CHACHA_STATE_WORDS] {
            let mut w = [0u32; CHACHA_STATE_WORDS];
            w[..8].copy_from_slice(&self.key);
            w[8] = self.counter as u32;
            w[9] = (self.counter >> 32) as u32;
            w[10..26].copy_from_slice(&self.buf);
            w[26] = self.idx as u32;
            w
        }
    }

    fn keyed(seed: u64, counter: u64) -> ChaCha8Rng {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.counter = counter;
        rng
    }

    #[test]
    fn four_block_kernel_matches_the_one_block_oracle() {
        // the last start counter makes lanes 2 and 3 carry into the high word
        for (seed, start) in [
            (0, 0),
            (1, 0),
            (42, 7),
            (9, u32::MAX as u64 - 1),
            (3, u64::MAX - 1),
        ] {
            let mut fast = keyed(seed, start);
            let mut oracle = OneBlock::of(&fast);
            for k in 0..100_000 {
                assert_eq!(fast.next_u32(), oracle.next_u32(), "seed {seed} word {k}");
            }
        }
    }

    #[test]
    fn state_words_match_the_one_block_layout_at_every_position() {
        for (seed, start) in [(5, 0), (6, u32::MAX as u64 - 1)] {
            let mut fast = keyed(seed, start);
            let mut oracle = OneBlock::of(&fast);
            for draws in 0..=3 * BUF_WORDS {
                assert_eq!(
                    fast.state_words(),
                    oracle.state_words(),
                    "after {draws} words"
                );
                let resumed = ChaCha8Rng::from_state_words(&fast.state_words());
                assert_eq!(
                    resumed.state_words(),
                    oracle.state_words(),
                    "re-export at {draws}"
                );
                assert_eq!(fast.next_u32(), oracle.next_u32());
            }
        }
    }

    #[test]
    fn restoring_a_reference_export_resumes_the_same_stream() {
        let key = ChaCha8Rng::seed_from_u64(11).key;
        for (start, skip) in [
            (0, 0),
            (0, 1),
            (0, 16),
            (3, 17),
            (u32::MAX as u64 - 1, 31),
            (9, 64),
        ] {
            let mut oracle = OneBlock::new(key, start);
            for _ in 0..skip {
                oracle.next_u32();
            }
            let mut resumed = ChaCha8Rng::from_state_words(&oracle.state_words());
            // mixed widths so reads straddle block and refill boundaries at odd offsets
            for k in 0..1000 {
                if k % 3 == 0 {
                    assert_eq!(resumed.next_u32(), oracle.next_u32());
                } else {
                    let lo = oracle.next_u32() as u64;
                    let hi = oracle.next_u32() as u64;
                    assert_eq!(
                        resumed.next_u64(),
                        lo | (hi << 32),
                        "start {start} skip {skip} k {k}"
                    );
                }
                assert_eq!(resumed.state_words(), oracle.state_words());
            }
        }
    }

    #[test]
    fn restoring_clamps_a_corrupt_index() {
        let mut w = ChaCha8Rng::seed_from_u64(4).state_words();
        w[26] = u32::MAX;
        let mut rng = ChaCha8Rng::from_state_words(&w);
        let mut oracle = OneBlock::new(rng.key, 0);
        assert_eq!(rng.next_u64(), {
            let lo = oracle.next_u32() as u64;
            lo | ((oracle.next_u32() as u64) << 32)
        });
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaCha8Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn floats_cover_unit_interval() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (mut lo, mut hi) = (1.0f64, 0.0f64);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            lo = lo.min(f);
            hi = hi.max(f);
        }
        assert!(lo < 0.01 && hi > 0.99);
    }

    #[test]
    fn u64_is_two_u32_draws() {
        // 1 + 200 words: the u64 reads start at an odd offset and cross
        // refill boundaries with one word left in the buffer
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let words: Vec<u32> = (0..201).map(|_| a.next_u32()).collect();
        let mut b = ChaCha8Rng::seed_from_u64(9);
        assert_eq!(b.next_u32(), words[0]);
        for pair in words[1..].chunks_exact(2) {
            assert_eq!(b.next_u64(), pair[0] as u64 | ((pair[1] as u64) << 32));
        }
    }
}

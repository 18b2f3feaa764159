//! The seeded input generator: splitmix64, so the benchmark needs no
//! random-number crate and every stream is a pure function of
//! `(seed, workload, session)`.

/// One splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// The stream of session `session` of workload `tag` under `seed`.
    /// The inputs are hashed rather than added, so neighbouring seeds
    /// or sessions never yield shifted copies of one stream.
    pub fn for_session(seed: u64, tag: &str, session: u64) -> SplitMix64 {
        let tag = tag.bytes().fold(0xCBF2_9CE4_8422_2325_u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
        });
        SplitMix64 {
            state: mix(mix(seed) ^ mix(tag) ^ mix(session.wrapping_add(GAMMA))),
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        mix(self.state)
    }

    /// A uniform value in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    /// A random byte.
    pub fn byte(&mut self) -> u8 {
        self.next_u64() as u8
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

//! Seeded input generators: the daemon's request stream and the edge
//! clips. Every input is a pure function of the benchmark seed.

use precision_beekeeping::signal::audio::{BeeAudioSynth, ColonyState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step in this many sends one request on both connections.
const DUP_EVERY: usize = 10;

/// Requests of each op in every block of 20: the seed draws the order
/// and the parameters, never the proportions, so the cost mix of a run
/// does not depend on its seed.
const MIX: [(&str, usize); 5] =
    [("recommend", 8), ("montecarlo", 3), ("plan", 3), ("features", 3), ("status", 3)];

/// Hive counts are drawn without repetition from `1..=HIVE_SPACE`.
const HIVE_SPACE: u64 = 200_000;

/// Duration of a `features` clip: short, so DSP stays cheap next to
/// framing and hand-offs.
const FEATURE_CLIP_S: f64 = 0.25;

/// One lockstep step of the two load connections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Two distinct requests, one per connection.
    Pair(String, String),
    /// The same request on both connections at once (coalescing path).
    Dup(String),
}

impl Step {
    /// The request connection `conn` sends in this step.
    pub fn request(&self, conn: usize) -> &str {
        match self {
            Step::Pair(a, b) => {
                if conn == 0 {
                    a
                } else {
                    b
                }
            }
            Step::Dup(r) => r,
        }
    }
}

/// Generator of the `serve_mix` request stream.
pub struct RequestGen {
    rng: StdRng,
    next_hive: u64,
    hive_mul: u64,
    hive_add: u64,
    /// Ops left in the current shuffled block.
    block: Vec<&'static str>,
    steps: usize,
    dup_at: usize,
}

impl RequestGen {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_0001);
        // k ↦ (mul·k + add) mod HIVE_SPACE is a bijection for a
        // multiplier coprime to 2·5, so hive counts never repeat.
        let mul = [7919u64, 104_729, 15_485_863, 32_452_843][rng.gen_range(0..4usize)];
        let add = rng.gen_range(0..HIVE_SPACE);
        RequestGen {
            rng,
            next_hive: 0,
            hive_mul: mul,
            hive_add: add,
            block: Vec::new(),
            steps: 0,
            dup_at: 0,
        }
    }

    fn hives(&mut self) -> u64 {
        let k = self.next_hive;
        self.next_hive += 1;
        1 + (k.wrapping_mul(self.hive_mul).wrapping_add(self.hive_add)) % HIVE_SPACE
    }

    /// Appends one shuffled block of the mix.
    fn refill(&mut self) {
        let start = self.block.len();
        for (op, n) in MIX {
            self.block.extend(std::iter::repeat_n(op, n));
        }
        for i in (start + 1..self.block.len()).rev() {
            let j = self.rng.gen_range(start..=i);
            self.block.swap(i, j);
        }
    }

    /// The next op of the mix; a compute op (not `status`) when asked.
    fn next_op(&mut self, compute_only: bool) -> &'static str {
        loop {
            if let Some(pos) = self.block.iter().rposition(|op| !compute_only || *op != "status") {
                return self.block.remove(pos);
            }
            self.refill();
        }
    }

    /// One request of the mix.
    fn request(&mut self, compute_only: bool) -> String {
        match self.next_op(compute_only) {
            "recommend" => format!("{{\"op\":\"recommend\",\"hives\":{},\"cap\":35}}", self.hives()),
            "montecarlo" => format!(
                "{{\"op\":\"montecarlo\",\"clients\":{},\"replications\":{},\"cap\":10,\"seed\":{}}}",
                self.rng.gen_range(20..200usize),
                self.rng.gen_range(2..6usize),
                self.rng.gen_range(0..1u64 << 40)
            ),
            "plan" => {
                let from = self.rng.gen_range(1..40usize);
                format!(
                    "{{\"op\":\"plan\",\"clients\":{},\"cap_from\":{from},\"cap_to\":{}}}",
                    self.rng.gen_range(100..5000usize),
                    from + 2
                )
            }
            "features" => format!(
                "{{\"op\":\"features\",\"colony\":\"{}\",\"duration_s\":{FEATURE_CLIP_S},\"seed\":{}}}",
                if self.rng.gen_bool(0.5) { "queenright" } else { "queenless" },
                self.rng.gen_range(0..1u64 << 40)
            ),
            _ => "{\"op\":\"status\"}".to_string(),
        }
    }

    /// The next lockstep step: one step in every [`DUP_EVERY`], at a
    /// seeded position, is a duplicate of a compute request (a `status`
    /// cannot coalesce); the others carry two distinct requests.
    pub fn step(&mut self) -> Step {
        if self.steps.is_multiple_of(DUP_EVERY) {
            self.dup_at = self.rng.gen_range(0..DUP_EVERY);
        }
        let dup = self.steps % DUP_EVERY == self.dup_at;
        self.steps += 1;
        if dup {
            Step::Dup(self.request(true))
        } else {
            Step::Pair(self.request(false), self.request(false))
        }
    }

    /// `n` steps.
    #[cfg(test)]
    pub fn steps(&mut self, n: usize) -> Vec<Step> {
        (0..n).map(|_| self.step()).collect()
    }
}

/// Paper-length clip parameters.
const CLIP_S: f64 = 10.0;

/// Colony state and synthesis seed of clip `i` of a run.
fn clip_spec(seed: u64, i: usize) -> (ColonyState, u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc11b_0000 ^ (i as u64).wrapping_mul(0x9e37_79b9));
    let state = if rng.gen_bool(0.5) { ColonyState::Queenright } else { ColonyState::Queenless };
    (state, rng.gen())
}

/// Synthesizes `n` seeded 10 s / 22 050 Hz clips.
pub fn clips(seed: u64, n: usize) -> Vec<(ColonyState, Vec<f64>)> {
    let synth = BeeAudioSynth::default();
    (0..n)
        .map(|i| {
            let (state, s) = clip_spec(seed, i);
            (state, synth.generate(state, CLIP_S, &mut StdRng::seed_from_u64(s)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(steps: &[Step]) -> Vec<u8> {
        steps.iter().flat_map(|s| format!("{s:?}").into_bytes()).collect()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let a = RequestGen::new(1).steps(500);
        let b = RequestGen::new(1).steps(500);
        let c = RequestGen::new(2).steps(500);
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
    }

    #[test]
    fn mix_shares_stay_within_tolerance() {
        for seed in [7, 8] {
            let steps = RequestGen::new(seed).steps(20_000);
            let dups = steps.iter().filter(|s| matches!(s, Step::Dup(_))).count();
            assert_eq!(dups, steps.len() / DUP_EVERY);
            let requests: Vec<&str> = steps
                .iter()
                .flat_map(|s| match s {
                    Step::Pair(a, b) => vec![a.as_str(), b.as_str()],
                    Step::Dup(r) => vec![r.as_str()],
                })
                .collect();
            let total: usize = MIX.iter().map(|m| m.1).sum();
            for (op, n) in MIX {
                let tag = format!("\"op\":\"{op}\"");
                let got = requests.iter().filter(|r| r.contains(&tag)).count() as f64
                    / requests.len() as f64;
                let share = n as f64 / total as f64;
                assert!((got - share).abs() < 0.002, "{op}: share {got} vs {share}");
            }
        }
    }

    #[test]
    fn hive_counts_never_repeat() {
        let mut g = RequestGen::new(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50_000 {
            assert!(seen.insert(g.hives()));
        }
        assert!(seen.iter().all(|&h| (1..=HIVE_SPACE).contains(&h)));
    }

    #[test]
    fn same_seed_same_clips_other_seed_other_clips() {
        let bits = |c: &[(ColonyState, Vec<f64>)]| -> Vec<u64> {
            c.iter().flat_map(|(_, x)| x.iter().map(|v| v.to_bits())).collect()
        };
        let a = clips(11, 2);
        let b = clips(11, 2);
        let c = clips(12, 2);
        assert_eq!(bits(&a), bits(&b));
        assert_ne!(bits(&a), bits(&c));
        assert_eq!(a[0].1.len(), (CLIP_S * 22_050.0) as usize);
    }
}

//! The shard map: which server owns which user.
//!
//! A PITEX query `(u, k)` names exactly one user, so the cluster partitions
//! by user: `shard_of(u)` is a pure function of `(seed, u)` — a splitmix64
//! mix reduced modulo the shard count — and every process that loads the
//! same map file routes identically, with no coordination service in the
//! loop. Each shard lists one or more *replica* addresses (identical
//! servers the router fails over between); capacity is added by growing a
//! shard's replica list, user-space is re-cut by writing a new map.
//!
//! The map travels as an artifact like models and indexes do: a
//! line-oriented text format for humans (`pitex shardmap`) and a `PSHM`
//! binary codec over [`pitex_support::codec`] for tooling, auto-detected by
//! magic on load.

use pitex_support::codec::{DecodeError, Decoder, Encoder};

const MAGIC: [u8; 4] = *b"PSHM";
const VERSION: u32 = 1;

/// Most replicas one shard may list: the router's connection pool reads a
/// shard's replica health into one 64-bit mask per call.
pub const MAX_REPLICAS: usize = 64;

/// Deterministic user → shard assignment plus per-shard replica lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    seed: u64,
    /// `shards[s]` is the replica address list of shard `s`.
    shards: Vec<Vec<String>>,
}

/// The splitmix64 finalizer: a full-avalanche 64-bit mix, so consecutive
/// user ids land on unrelated shards (the same mix the index builder uses
/// for per-draw RNG streams).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ShardMap {
    /// A map over the given replica lists (one inner list per shard).
    /// Fails on an empty cluster, an empty replica list, a shard with more
    /// than [`MAX_REPLICAS`] replicas, or a blank / whitespace-carrying
    /// address (addresses must be single tokens: the text format is
    /// whitespace-separated).
    pub fn new(shards: Vec<Vec<String>>) -> Result<Self, String> {
        Self::with_seed(shards, 42)
    }

    /// [`new`](Self::new) under an explicit hash seed. Changing the seed
    /// re-cuts the whole user space — every router and tool must load the
    /// same map file, which carries the seed.
    pub fn with_seed(shards: Vec<Vec<String>>, seed: u64) -> Result<Self, String> {
        if shards.is_empty() {
            return Err("a shard map needs at least one shard".to_string());
        }
        for (s, replicas) in shards.iter().enumerate() {
            if replicas.is_empty() {
                return Err(format!("shard {s} has no replicas"));
            }
            if replicas.len() > MAX_REPLICAS {
                return Err(format!(
                    "shard {s} lists {} replicas (at most {MAX_REPLICAS})",
                    replicas.len()
                ));
            }
            for addr in replicas {
                if addr.is_empty() || addr.chars().any(|c| c.is_whitespace()) {
                    return Err(format!("shard {s}: bad replica address {addr:?}"));
                }
            }
        }
        Ok(Self { seed, shards })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total replica count across shards.
    pub fn num_replicas(&self) -> usize {
        self.shards.iter().map(|r| r.len()).sum()
    }

    /// The hash seed the user cut is keyed by.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The replica addresses of one shard.
    pub fn replicas(&self, shard: usize) -> &[String] {
        &self.shards[shard]
    }

    /// The shard owning `user` — deterministic across processes and runs.
    pub fn shard_of(&self, user: u32) -> usize {
        (mix(self.seed ^ u64::from(user)) % self.shards.len() as u64) as usize
    }

    /// The scatter plan for a batch of users: one `(shard, users)` group
    /// per shard that owns at least one of them, shards in ascending
    /// order, each group's users in input order. This is the unit a
    /// batched scatter sends per connection.
    pub fn plan(&self, users: &[u32]) -> Vec<(usize, Vec<u32>)> {
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
        for &user in users {
            groups[self.shard_of(user)].push(user);
        }
        groups.into_iter().enumerate().filter(|(_, users)| !users.is_empty()).collect()
    }

    /// Serializes to the line-oriented text format:
    ///
    /// ```text
    /// # pitex shard map
    /// seed 42
    /// shard 0 127.0.0.1:7411 127.0.0.1:7412
    /// shard 1 127.0.0.1:7421 127.0.0.1:7422
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::from("# pitex shard map\n");
        out.push_str(&format!("seed {}\n", self.seed));
        for (s, replicas) in self.shards.iter().enumerate() {
            out.push_str(&format!("shard {s} {}\n", replicas.join(" ")));
        }
        out
    }

    /// Parses the [`to_text`](Self::to_text) format. Blank lines and `#`
    /// comments are ignored; shard ids must be consecutive from 0 (the id
    /// is part of the routing function, so a silent gap would mis-route).
    pub fn parse_text(text: &str) -> Result<ShardMap, String> {
        let mut seed = 42u64;
        let mut shards: Vec<Vec<String>> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tokens = line.split_ascii_whitespace();
            match tokens.next() {
                Some("seed") => {
                    let v =
                        tokens.next().ok_or(format!("line {}: seed needs a value", lineno + 1))?;
                    seed = v.parse().map_err(|_| format!("line {}: bad seed {v:?}", lineno + 1))?;
                    if tokens.next().is_some() {
                        return Err(format!("line {}: trailing tokens after seed", lineno + 1));
                    }
                }
                Some("shard") => {
                    let id =
                        tokens.next().ok_or(format!("line {}: shard needs an id", lineno + 1))?;
                    let id: usize = id
                        .parse()
                        .map_err(|_| format!("line {}: bad shard id {id:?}", lineno + 1))?;
                    if id != shards.len() {
                        return Err(format!(
                            "line {}: shard ids must be consecutive (expected {}, found {id})",
                            lineno + 1,
                            shards.len()
                        ));
                    }
                    let replicas: Vec<String> = tokens.map(str::to_string).collect();
                    shards.push(replicas);
                }
                Some(other) => {
                    return Err(format!("line {}: unknown directive {other:?}", lineno + 1))
                }
                None => unreachable!("blank lines were skipped"),
            }
        }
        Self::with_seed(shards, seed)
    }

    /// Serializes to the `PSHM` binary artifact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new(Vec::new());
        enc.header(MAGIC, VERSION);
        enc.u64(self.seed);
        enc.u32(self.shards.len() as u32);
        for replicas in &self.shards {
            enc.u32(replicas.len() as u32);
            for addr in replicas {
                enc.str(addr);
            }
        }
        enc.into_inner()
    }

    /// Decodes the `PSHM` binary artifact.
    pub fn from_bytes(bytes: &[u8]) -> Result<ShardMap, DecodeError> {
        let mut dec = Decoder::new(bytes);
        dec.header(MAGIC, VERSION)?;
        let seed = dec.u64()?;
        let num_shards = dec.u32()? as usize;
        let mut shards = Vec::with_capacity(num_shards);
        for _ in 0..num_shards {
            let num_replicas = dec.u32()? as usize;
            let mut replicas = Vec::with_capacity(num_replicas);
            for _ in 0..num_replicas {
                replicas.push(dec.str()?);
            }
            shards.push(replicas);
        }
        Self::with_seed(shards, seed)
            .map_err(|_| DecodeError::CorruptLength { declared: num_shards, remaining: 0 })
    }

    /// Loads a map file that is either the `PSHM` binary artifact or the
    /// text format, auto-detected via the magic tag.
    pub fn from_file_bytes(bytes: &[u8]) -> Result<ShardMap, String> {
        if bytes.starts_with(&MAGIC) {
            return Self::from_bytes(bytes).map_err(|e| e.to_string());
        }
        let text = std::str::from_utf8(bytes)
            .map_err(|_| "shard map file is neither PSHM nor UTF-8 text".to_string())?;
        Self::parse_text(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_by_two() -> ShardMap {
        ShardMap::new(vec![
            vec!["127.0.0.1:7411".to_string(), "127.0.0.1:7412".to_string()],
            vec!["127.0.0.1:7421".to_string(), "127.0.0.1:7422".to_string()],
        ])
        .unwrap()
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let map = two_by_two();
        for user in 0..10_000u32 {
            let shard = map.shard_of(user);
            assert!(shard < 2);
            assert_eq!(shard, map.shard_of(user), "same user, same shard");
            assert_eq!(shard, two_by_two().shard_of(user), "same map file, same shard");
        }
    }

    #[test]
    fn hashing_spreads_dense_user_ids() {
        // Dense ids (the common case: CSR vertex ids) must not all land on
        // one shard; 2x of uniform is the cluster's balance contract.
        for shards in [2usize, 4, 8, 16] {
            let map = ShardMap::new(vec![vec!["a:1".to_string()]; shards]).unwrap();
            let mut load = vec![0usize; shards];
            let users = 4_096u32;
            for user in 0..users {
                load[map.shard_of(user)] += 1;
            }
            let uniform = users as usize / shards;
            for (s, &l) in load.iter().enumerate() {
                assert!(l > 0, "{shards} shards: shard {s} got nothing");
                assert!(l <= 2 * uniform, "{shards} shards: shard {s} holds {l} > 2x uniform");
            }
        }
    }

    #[test]
    fn different_seeds_cut_differently() {
        let a = ShardMap::with_seed(vec![vec!["x:1".to_string()]; 8], 1).unwrap();
        let b = ShardMap::with_seed(vec![vec!["x:1".to_string()]; 8], 2).unwrap();
        let moved = (0..1_000u32).filter(|&u| a.shard_of(u) != b.shard_of(u)).count();
        assert!(moved > 500, "a new seed re-cuts most of the user space (moved {moved})");
    }

    #[test]
    fn plan_groups_users_by_shard_in_order() {
        let map = two_by_two();
        let users: Vec<u32> = (0..64).collect();
        let plan = map.plan(&users);
        assert_eq!(plan.len(), 2, "64 dense users touch both shards");
        let mut seen = 0usize;
        let mut last_shard = None;
        for (shard, group) in &plan {
            assert!(last_shard < Some(*shard), "shards ascend");
            last_shard = Some(*shard);
            for &u in group {
                assert_eq!(map.shard_of(u), *shard);
            }
            seen += group.len();
        }
        assert_eq!(seen, users.len(), "the plan partitions the batch");
        assert!(map.plan(&[]).is_empty());
    }

    #[test]
    fn text_and_binary_round_trip() {
        let map = two_by_two();
        assert_eq!(ShardMap::parse_text(&map.to_text()).unwrap(), map);
        assert_eq!(ShardMap::from_bytes(&map.to_bytes()).unwrap(), map);
        assert_eq!(ShardMap::from_file_bytes(&map.to_bytes()).unwrap(), map);
        assert_eq!(ShardMap::from_file_bytes(map.to_text().as_bytes()).unwrap(), map);
    }

    #[test]
    fn text_parser_rejects_malformed_maps() {
        for (text, needle) in [
            ("", "at least one shard"),
            ("shard 1 a:1", "consecutive"),
            ("shard 0 a:1\nshard 2 b:1", "consecutive"),
            ("shard 0", "no replicas"),
            ("seed\nshard 0 a:1", "seed needs"),
            ("seed x\nshard 0 a:1", "bad seed"),
            ("frobnicate 0 a:1", "unknown directive"),
        ] {
            let err = ShardMap::parse_text(text).expect_err(text);
            assert!(err.contains(needle), "{text:?} -> {err:?}");
        }
        assert!(ShardMap::from_file_bytes(&[0xFF, 0xFE, 0x00]).is_err());
    }

    #[test]
    fn replica_lists_are_capped() {
        let replicas = |n: usize| (0..n).map(|r| format!("a:{r}")).collect::<Vec<_>>();
        assert!(ShardMap::new(vec![replicas(MAX_REPLICAS)]).is_ok());
        let err = ShardMap::new(vec![replicas(1), replicas(MAX_REPLICAS + 1)]).unwrap_err();
        assert!(err.contains("shard 1") && err.contains("at most 64"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a cluster\n\nseed 7\n# shard zero\nshard 0 a:1 b:2\n";
        let map = ShardMap::parse_text(text).unwrap();
        assert_eq!(map.seed(), 7);
        assert_eq!(map.replicas(0), ["a:1", "b:2"]);
    }
}

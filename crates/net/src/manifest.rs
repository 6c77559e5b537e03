//! Cluster host manifests: the one JSON document every `ringd --cluster`
//! process reads (S27).
//!
//! A manifest pins a whole cluster run: the job (algorithm, ring size,
//! inputs, seed, net options) and the shard map — which host owns which
//! contiguous block of processors and where it listens. Every shard
//! parses the same file, re-renders it canonically, and hashes the bytes
//! ([`ClusterManifest::digest`], FNV-1a); the digest rides the link
//! handshake so two processes reading *different* manifests refuse to
//! exchange a single payload frame. Hashing the canonical rendering (not
//! the input text) makes the digest whitespace- and key-order-independent
//! — only a semantic difference changes it.
//!
//! The manifest is read with the workspace codec, [`anonring_sim::json`],
//! and rendered canonically by hand with fields in fixed order.

use std::fmt;
use std::ops::Range;

use anonring_sim::json::{json_escape, Value};

/// Manifest format version this build reads and writes.
pub const MANIFEST_VERSION: u64 = 1;

/// One host's slice of the ring: shard `id` listens on `addr` and owns
/// processors `start .. start + count`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard id; shard 0 is the coordinator.
    pub id: u64,
    /// `host:port` the shard listens on for cross-shard links and the
    /// control plane.
    pub addr: String,
    /// First owned processor (global index).
    pub start: usize,
    /// Number of owned processors (≥ 1).
    pub count: usize,
}

/// The parsed, validated cluster manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterManifest {
    /// Manifest format version (must equal [`MANIFEST_VERSION`]).
    pub version: u64,
    /// Human label, carried into recording metas.
    pub label: String,
    /// Audited algorithm name (resolved by the driver at run time).
    pub algorithm: String,
    /// Ring size.
    pub n: usize,
    /// Per-processor inputs; empty means "driver defaults".
    pub inputs: Vec<u8>,
    /// Delivery-jitter seed shared by all shards.
    pub seed: u64,
    /// Per-port inbox capacity.
    pub capacity: usize,
    /// Maximum injected delivery delay in microseconds.
    pub max_delay_us: u64,
    /// Run deadline in milliseconds.
    pub timeout_ms: u64,
    /// The shard map: ids `0..shards.len()`, contiguous processor ranges
    /// covering exactly `0..n`.
    pub shards: Vec<ShardSpec>,
}

/// Why a manifest was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The text is not the JSON this reader understands.
    Parse {
        /// What went wrong, with byte offset.
        detail: String,
    },
    /// The JSON parsed but violates a manifest invariant.
    Invalid {
        /// Which invariant, in words.
        detail: String,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Parse { detail } => write!(f, "manifest parse error: {detail}"),
            ManifestError::Invalid { detail } => write!(f, "invalid manifest: {detail}"),
        }
    }
}

impl std::error::Error for ManifestError {}

fn invalid(detail: impl Into<String>) -> ManifestError {
    ManifestError::Invalid {
        detail: detail.into(),
    }
}

impl ClusterManifest {
    /// Parses and validates a manifest document.
    ///
    /// # Errors
    ///
    /// [`ManifestError::Parse`] on malformed JSON, [`ManifestError::Invalid`]
    /// when the shard map does not tile `0..n` (or any other invariant
    /// fails).
    pub fn parse(text: &str) -> Result<ClusterManifest, ManifestError> {
        let value = Value::parse(text).map_err(|detail| ManifestError::Parse { detail })?;
        if !matches!(value, Value::Object(_)) {
            return Err(invalid("top level must be an object"));
        }
        let field = |name: &str| -> Result<&Value, ManifestError> {
            value
                .get(name)
                .ok_or_else(|| invalid(format!("missing \"{name}\"")))
        };
        let num = |name: &str| -> Result<u64, ManifestError> {
            field(name)?
                .as_u64()
                .ok_or_else(|| invalid(format!("\"{name}\" must be an unsigned integer")))
        };
        let text_field = |name: &str| -> Result<String, ManifestError> {
            Ok(field(name)?
                .as_str()
                .ok_or_else(|| invalid(format!("\"{name}\" must be a string")))?
                .to_string())
        };
        let version = num("version")?;
        if version != MANIFEST_VERSION {
            return Err(invalid(format!(
                "manifest version {version} (this build reads {MANIFEST_VERSION})"
            )));
        }
        let n = usize::try_from(num("n")?).map_err(|_| invalid("\"n\" out of range"))?;
        let inputs = match value.get("inputs") {
            None => Vec::new(),
            Some(v) => {
                let arr = v
                    .as_array()
                    .ok_or_else(|| invalid("\"inputs\" must be an array"))?;
                let mut inputs = Vec::with_capacity(arr.len());
                for item in arr {
                    let byte = item
                        .as_u64()
                        .and_then(|v| u8::try_from(v).ok())
                        .ok_or_else(|| invalid("\"inputs\" entries must be bytes"))?;
                    inputs.push(byte);
                }
                inputs
            }
        };
        if !inputs.is_empty() && inputs.len() != n {
            return Err(invalid(format!("{} inputs for n = {n}", inputs.len())));
        }
        let shard_values = field("shards")?
            .as_array()
            .ok_or_else(|| invalid("\"shards\" must be an array"))?;
        let mut shards = Vec::with_capacity(shard_values.len());
        for entry in shard_values {
            if !matches!(entry, Value::Object(_)) {
                return Err(invalid("each shard must be an object"));
            }
            let get = |name: &str| -> Result<&Value, ManifestError> {
                entry
                    .get(name)
                    .ok_or_else(|| invalid(format!("shard missing \"{name}\"")))
            };
            let shard_num = |name: &str| -> Result<u64, ManifestError> {
                get(name)?
                    .as_u64()
                    .ok_or_else(|| invalid(format!("shard \"{name}\" must be an unsigned integer")))
            };
            shards.push(ShardSpec {
                id: shard_num("id")?,
                addr: get("addr")?
                    .as_str()
                    .ok_or_else(|| invalid("shard \"addr\" must be a string"))?
                    .to_string(),
                start: usize::try_from(shard_num("start")?)
                    .map_err(|_| invalid("shard \"start\" out of range"))?,
                count: usize::try_from(shard_num("count")?)
                    .map_err(|_| invalid("shard \"count\" out of range"))?,
            });
        }
        let manifest = ClusterManifest {
            version,
            label: text_field("label")?,
            algorithm: text_field("algorithm")?,
            n,
            inputs,
            seed: num("seed")?,
            capacity: usize::try_from(num("capacity")?)
                .map_err(|_| invalid("\"capacity\" out of range"))?,
            max_delay_us: num("max_delay_us")?,
            timeout_ms: num("timeout_ms")?,
            shards,
        };
        manifest.validate()?;
        Ok(manifest)
    }

    fn validate(&self) -> Result<(), ManifestError> {
        if self.n < 2 {
            return Err(invalid("n must be at least 2"));
        }
        if self.capacity == 0 {
            return Err(invalid("capacity must be positive"));
        }
        if self.shards.is_empty() {
            return Err(invalid("at least one shard required"));
        }
        let mut next_start = 0usize;
        for (k, shard) in self.shards.iter().enumerate() {
            if shard.id != k as u64 {
                return Err(invalid(format!(
                    "shard ids must be 0..{} in order (found {} at position {k})",
                    self.shards.len(),
                    shard.id
                )));
            }
            if shard.addr.is_empty() {
                return Err(invalid(format!("shard {k} has an empty addr")));
            }
            if shard.count == 0 {
                return Err(invalid(format!("shard {k} owns no processors")));
            }
            if shard.start != next_start {
                return Err(invalid(format!(
                    "shard {k} starts at {} (expected {next_start}: ranges must be contiguous)",
                    shard.start
                )));
            }
            next_start = shard.start + shard.count;
        }
        if next_start != self.n {
            return Err(invalid(format!(
                "shards cover 0..{next_start} but n = {}",
                self.n
            )));
        }
        Ok(())
    }

    /// The shard owning global processor `proc`, if `proc < n`.
    #[must_use]
    pub fn owner_of(&self, proc: usize) -> Option<u64> {
        self.shards
            .iter()
            .find(|shard| shard.start <= proc && proc < shard.start + shard.count)
            .map(|shard| shard.id)
    }

    /// The processor range owned by shard `id`.
    #[must_use]
    pub fn local_range(&self, id: u64) -> Option<Range<usize>> {
        self.shard(id)
            .map(|shard| shard.start..shard.start + shard.count)
    }

    /// The shard record for `id`.
    #[must_use]
    pub fn shard(&self, id: u64) -> Option<&ShardSpec> {
        usize::try_from(id).ok().and_then(|k| self.shards.get(k))
    }

    /// Canonical rendering: fixed field order, no whitespace. Parsing this
    /// back yields an equal manifest; the [`digest`](Self::digest) is
    /// computed over these bytes.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"version\":{},\"label\":\"{}\",\"algorithm\":\"{}\",\"n\":{},\"inputs\":[",
            self.version,
            json_escape(&self.label),
            json_escape(&self.algorithm),
            self.n,
        ));
        for (k, byte) in self.inputs.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&byte.to_string());
        }
        out.push_str(&format!(
            "],\"seed\":{},\"capacity\":{},\"max_delay_us\":{},\"timeout_ms\":{},\"shards\":[",
            self.seed, self.capacity, self.max_delay_us, self.timeout_ms,
        ));
        for (k, shard) in self.shards.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"addr\":\"{}\",\"start\":{},\"count\":{}}}",
                shard.id,
                json_escape(&shard.addr),
                shard.start,
                shard.count,
            ));
        }
        out.push_str("]}");
        out
    }

    /// FNV-1a over the canonical rendering — the value both ends of every
    /// cluster link compare during the handshake.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(self.render().as_bytes())
    }
}

/// FNV-1a 64-bit over raw bytes.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::{ClusterManifest, ManifestError, ShardSpec, MANIFEST_VERSION};

    fn demo() -> ClusterManifest {
        ClusterManifest {
            version: MANIFEST_VERSION,
            label: "demo".into(),
            algorithm: "async-or".into(),
            n: 6,
            inputs: vec![1, 0, 1, 0, 1, 0],
            seed: 7,
            capacity: 8,
            max_delay_us: 0,
            timeout_ms: 10_000,
            shards: vec![
                ShardSpec {
                    id: 0,
                    addr: "127.0.0.1:4400".into(),
                    start: 0,
                    count: 2,
                },
                ShardSpec {
                    id: 1,
                    addr: "127.0.0.1:4401".into(),
                    start: 2,
                    count: 4,
                },
            ],
        }
    }

    #[test]
    fn render_parse_round_trips() {
        let m = demo();
        let parsed = ClusterManifest::parse(&m.render()).expect("round trip");
        assert_eq!(parsed, m);
        assert_eq!(parsed.digest(), m.digest());
    }

    #[test]
    fn digest_ignores_formatting_but_not_semantics() {
        let m = demo();
        let pretty = m.render().replace(",\"seed\"", " ,\n  \"seed\"");
        let reparsed = ClusterManifest::parse(&pretty).expect("whitespace tolerated");
        assert_eq!(reparsed.digest(), m.digest());
        let mut other = demo();
        other.seed = 8;
        assert_ne!(other.digest(), m.digest());
    }

    #[test]
    fn owner_and_range_follow_the_shard_map() {
        let m = demo();
        assert_eq!(m.owner_of(0), Some(0));
        assert_eq!(m.owner_of(1), Some(0));
        assert_eq!(m.owner_of(2), Some(1));
        assert_eq!(m.owner_of(5), Some(1));
        assert_eq!(m.owner_of(6), None);
        assert_eq!(m.local_range(1), Some(2..6));
        assert_eq!(m.local_range(2), None);
    }

    #[test]
    fn gaps_overlaps_and_bad_ids_are_rejected() {
        let mut gap = demo();
        gap.shards[1].start = 3;
        let err = ClusterManifest::parse(&gap.render()).expect_err("gap");
        assert!(matches!(err, ManifestError::Invalid { .. }));
        let mut short = demo();
        short.shards[1].count = 3;
        assert!(ClusterManifest::parse(&short.render()).is_err());
        let mut ids = demo();
        ids.shards[1].id = 2;
        assert!(ClusterManifest::parse(&ids.render()).is_err());
    }

    #[test]
    fn empty_inputs_mean_driver_defaults() {
        let mut m = demo();
        m.inputs.clear();
        let parsed = ClusterManifest::parse(&m.render()).expect("no inputs");
        assert!(parsed.inputs.is_empty());
    }

    #[test]
    fn wrong_version_is_named() {
        let text = demo().render().replace("\"version\":1", "\"version\":9");
        let err = ClusterManifest::parse(&text).expect_err("version");
        assert!(err.to_string().contains('9'));
    }
}

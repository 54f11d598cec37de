//! Snapshot persistence: the whole registry as one JSON document on disk.
//!
//! The snapshot carries everything [`RegistrySnapshot`] serialises —
//! posteriors, budget ledgers, selector RNG states, partially answered
//! open rounds and the master RNG state — so a restarted daemon continues
//! every session mid-round, and future `open`s continue the same seed
//! schedule. Every snapshot file, exported or durable, is written by
//! [`write_atomic`], so a crash or power cut mid-write never clobbers the
//! previous good snapshot.

use crate::fault::{FaultAction, FaultPlan, FaultPoint, SimulatedCrash};
use crowdfusion_core::session::RegistrySnapshot;
use crowdfusion_core::shard::ShardedRegistry;
use std::fs::File;
use std::io;
use std::path::Path;

/// The registry snapshot document, exactly as
/// `protocol::encode(&registry.snapshot())` would print it, framed by
/// `head` and `tail`. Re-encodes only the sessions changed since the
/// registry was last encoded (see [`ShardedRegistry::encode_snapshot`]).
pub fn encode_registry(registry: &ShardedRegistry, head: &str, tail: &str) -> String {
    registry.encode_snapshot(head, tail, |value| crate::protocol::encode(&value))
}

/// Writes a registry snapshot document atomically and durably.
pub fn save(text: &str, path: &Path) -> io::Result<()> {
    write_atomic(path, text.as_bytes(), &FaultPlan::none())
}

/// The repository's one atomic-file writer: `path.tmp` is written and
/// fsynced, renamed over `path`, and then the directory is fsynced so the
/// rename itself is durable before the caller acts on it (a durable
/// snapshot truncates the journal next). On any error the previous file
/// at `path` is untouched.
///
/// `faults` may crash or tear the tmp write ([`FaultPoint::SnapshotWrite`])
/// or crash before the rename ([`FaultPoint::SnapshotRename`]).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8], faults: &FaultPlan) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    match faults.check(FaultPoint::SnapshotWrite) {
        None => std::fs::write(&tmp, bytes)?,
        Some(FaultAction::Crash) => {
            return Err(SimulatedCrash {
                point: FaultPoint::SnapshotWrite,
            }
            .into())
        }
        Some(FaultAction::Torn { keep_bytes }) => {
            let keep = keep_bytes.min(bytes.len());
            std::fs::write(&tmp, &bytes[..keep])?;
            return Err(SimulatedCrash {
                point: FaultPoint::SnapshotWrite,
            }
            .into());
        }
        Some(other) => panic!("snapshot write cannot honour {other:?}"),
    }
    File::open(&tmp)?.sync_all()?;
    faults.crash_if_scheduled(FaultPoint::SnapshotRename)?;
    std::fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Reads a registry snapshot.
pub fn load(path: &Path) -> io::Result<RegistrySnapshot> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfusion_core::pool::Pool;
    use crowdfusion_core::round::RoundConfig;
    use crowdfusion_core::session::EntitySpec;

    #[test]
    fn snapshot_file_roundtrips() {
        let config = RoundConfig::new(2, 6, 0.8).unwrap();
        let reg = ShardedRegistry::new(1, config, Pool::serial(), 2);
        reg.open_batch(
            vec![EntitySpec::simple("b", vec![0.4, 0.6], vec![true, false])],
            None,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("crowdfusion-service-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let snap = reg.snapshot();
        save(&encode_registry(&reg, "", ""), &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded, snap);
        // The tmp sibling does not linger.
        assert!(!path.with_extension("tmp").exists());
        assert!(load(&dir.join("missing.json")).is_err());
        std::fs::remove_file(&path).ok();
    }
}

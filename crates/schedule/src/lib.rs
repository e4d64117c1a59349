//! # janus-schedule — rewrite rules and rewrite schedules
//!
//! The *rewrite schedule* is the architecture-independent interface between
//! the static analyser and the dynamic binary modifier (section II-A of the
//! paper): a header, a list of fixed-length *rewrite rules* (trigger address,
//! rule id, data words) and nothing else. The DBM looks the rules up by
//! trigger address and invokes the handler for each rule attached to a basic
//! block just before the block is placed in its code cache.
//!
//! This crate defines the rule identifiers of Figure 3, the fixed-length rule
//! record, the schedule container, its binary serialisation (whose size is
//! what Figure 10 measures) and the slot-addressed [`RuleTable`] the DBM and
//! the profiler lower a schedule into once per binary.
//!
//! # Example
//!
//! ```
//! use janus_schedule::{RewriteRule, RewriteSchedule, RuleId};
//!
//! let mut schedule = RewriteSchedule::new("demo");
//! schedule.push(RewriteRule::new(0x400100, RuleId::LoopInit).with_data(0, 7));
//! schedule.push(RewriteRule::new(0x400180, RuleId::LoopFinish).with_data(0, 7));
//! let bytes = schedule.to_bytes();
//! let reloaded = RewriteSchedule::from_bytes(&bytes).unwrap();
//! assert_eq!(reloaded.rules(), schedule.rules());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

/// Version of the serialised schedule format produced by
/// [`RewriteSchedule::to_bytes`] and required by
/// [`RewriteSchedule::from_bytes`].
///
/// The constant exists so *other* serialisation layers can key their own
/// version headers on it: the persistent artifact store in `janus-serve`
/// embeds this value in every entry and treats a mismatch as "rebuild, do
/// not load" — bump it whenever the byte layout below changes and every
/// stale on-disk schedule is invalidated automatically instead of being
/// misparsed.
pub const SCHEDULE_FORMAT_VERSION: u32 = 1;

/// Number of 64-bit data words carried by every rewrite rule.
pub const RULE_DATA_WORDS: usize = 6;

/// Size in bytes of one serialised rewrite rule.
pub const RULE_SIZE: usize = 8 + 2 + 6 + RULE_DATA_WORDS * 8;

/// The rewrite-rule identifiers of the Janus system (Figure 3 of the paper),
/// covering statically-driven profiling (blue rules) and automatic
/// parallelisation (orange rules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum RuleId {
    /// Start profiling a loop.
    ProfLoopStart = 0,
    /// Finish profiling a loop.
    ProfLoopFinish = 1,
    /// Start another loop iteration (profiling).
    ProfLoopIter = 2,
    /// Start profiling an external call within a profiled loop.
    ProfExcallStart = 3,
    /// Finish profiling an external call within a profiled loop.
    ProfExcallFinish = 4,
    /// Check for data dependences for a memory access (profiling).
    ProfMemAccess = 5,
    /// Schedule threads to jump to a code address.
    ThreadSchedule = 6,
    /// Send threads back to the thread pool.
    ThreadYield = 7,
    /// Initialise loop context for each thread.
    LoopInit = 8,
    /// Combine loop contexts from all threads.
    LoopFinish = 9,
    /// Update a loop bound for a thread.
    LoopUpdateBound = 10,
    /// Redirect a stack access to the main stack.
    MemMainStack = 11,
    /// Redirect a memory access to a private address.
    MemPrivatise = 12,
    /// Perform a bounds check on two array bounds.
    MemBoundsCheck = 13,
    /// Spill a set of registers to private storage.
    MemSpillReg = 14,
    /// Recover a set of registers from private storage.
    MemRecoverReg = 15,
    /// Start a software transaction.
    TxStart = 16,
    /// Validate and commit a software transaction.
    TxFinish = 17,
    /// Run the loop under Block-STM-style iteration-level speculation
    /// (multi-version memory, lazy validation, per-iteration rollback)
    /// instead of chunked DOALL execution.
    Speculate = 18,
}

impl RuleId {
    /// All rule identifiers in numeric order.
    pub const ALL: [RuleId; 19] = [
        RuleId::ProfLoopStart,
        RuleId::ProfLoopFinish,
        RuleId::ProfLoopIter,
        RuleId::ProfExcallStart,
        RuleId::ProfExcallFinish,
        RuleId::ProfMemAccess,
        RuleId::ThreadSchedule,
        RuleId::ThreadYield,
        RuleId::LoopInit,
        RuleId::LoopFinish,
        RuleId::LoopUpdateBound,
        RuleId::MemMainStack,
        RuleId::MemPrivatise,
        RuleId::MemBoundsCheck,
        RuleId::MemSpillReg,
        RuleId::MemRecoverReg,
        RuleId::TxStart,
        RuleId::TxFinish,
        RuleId::Speculate,
    ];

    /// Numeric encoding of the rule id.
    #[must_use]
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decodes a rule id.
    #[must_use]
    pub fn from_u16(v: u16) -> Option<RuleId> {
        RuleId::ALL.get(v as usize).copied()
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RuleId::ProfLoopStart => "PROF_LOOP_START",
            RuleId::ProfLoopFinish => "PROF_LOOP_FINISH",
            RuleId::ProfLoopIter => "PROF_LOOP_ITER",
            RuleId::ProfExcallStart => "PROF_EXCALL_START",
            RuleId::ProfExcallFinish => "PROF_EXCALL_FINISH",
            RuleId::ProfMemAccess => "PROF_MEM_ACCESS",
            RuleId::ThreadSchedule => "THREAD_SCHEDULE",
            RuleId::ThreadYield => "THREAD_YIELD",
            RuleId::LoopInit => "LOOP_INIT",
            RuleId::LoopFinish => "LOOP_FINISH",
            RuleId::LoopUpdateBound => "LOOP_UPDATE_BOUND",
            RuleId::MemMainStack => "MEM_MAIN_STACK",
            RuleId::MemPrivatise => "MEM_PRIVATISE",
            RuleId::MemBoundsCheck => "MEM_BOUNDS_CHECK",
            RuleId::MemSpillReg => "MEM_SPILL_REG",
            RuleId::MemRecoverReg => "MEM_RECOVER_REG",
            RuleId::TxStart => "TX_START",
            RuleId::TxFinish => "TX_FINISH",
            RuleId::Speculate => "SPECULATE",
        };
        f.write_str(name)
    }
}

/// A fixed-length rewrite rule: the address it is attached to, the
/// transformation to carry out and rule-specific data words.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewriteRule {
    /// The application address (instruction or basic-block address) at which
    /// the rule triggers.
    pub addr: u64,
    /// The transformation to perform.
    pub id: RuleId,
    /// Rule-specific payload (register numbers, immediates, loop ids, array
    /// base descriptors, ...).
    pub data: [i64; RULE_DATA_WORDS],
}

impl RewriteRule {
    /// Creates a rule with zeroed data words.
    #[must_use]
    pub fn new(addr: u64, id: RuleId) -> RewriteRule {
        RewriteRule {
            addr,
            id,
            data: [0; RULE_DATA_WORDS],
        }
    }

    /// Sets data word `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= RULE_DATA_WORDS`.
    #[must_use]
    pub fn with_data(mut self, index: usize, value: i64) -> RewriteRule {
        self.data[index] = value;
        self
    }

    /// Data word 0, conventionally the loop id the rule belongs to.
    #[must_use]
    pub fn loop_id(&self) -> usize {
        self.data[0] as usize
    }
}

impl fmt::Display for RewriteRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}: {} {:?}", self.addr, self.id, self.data)
    }
}

/// Errors raised when deserialising a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The byte stream is not a valid schedule image.
    Malformed {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Malformed { reason } => {
                write!(f, "malformed rewrite schedule: {reason}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A rewrite schedule: header information plus the ordered list of rules.
///
/// Rule order matters: where two or more rules refer to the same machine
/// instruction, the DBM applies them in schedule order (section II-A2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RewriteSchedule {
    /// Name of the executable this schedule belongs to.
    pub executable: String,
    /// Number of threads the schedule was generated for (0 = decided at
    /// runtime).
    pub threads: u32,
    rules: Vec<RewriteRule>,
}

impl RewriteSchedule {
    /// Creates an empty schedule for the named executable.
    #[must_use]
    pub fn new(executable: impl Into<String>) -> RewriteSchedule {
        RewriteSchedule {
            executable: executable.into(),
            threads: 0,
            rules: Vec::new(),
        }
    }

    /// Appends a rule.
    pub fn push(&mut self, rule: RewriteRule) {
        self.rules.push(rule);
    }

    /// All rules in schedule order.
    #[must_use]
    pub fn rules(&self) -> &[RewriteRule] {
        &self.rules
    }

    /// Number of rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` when the schedule carries no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Lowers the schedule, once per binary, into a table addressed by
    /// instruction *slot*: the dense numbering a loaded process gives its
    /// instruction addresses (`janus_vm::Process::slot_of`, passed in so this
    /// crate stays dependency-free). Rules whose address has no slot below
    /// `num_slots` can never fire and are dropped; schedule order is
    /// preserved within a slot.
    #[must_use]
    pub fn lower(&self, num_slots: usize, slot_of: impl Fn(u64) -> Option<usize>) -> RuleTable {
        let slot_of = |rule: &RewriteRule| slot_of(rule.addr).filter(|&slot| slot < num_slots);
        // Counting sort by slot: row lengths, then prefix sums.
        let mut starts = vec![0u32; num_slots + 1];
        for slot in self.rules.iter().filter_map(slot_of) {
            starts[slot + 1] += 1;
        }
        for slot in 0..num_slots {
            starts[slot + 1] += starts[slot];
        }
        let mut next = starts.clone();
        let mut rules = vec![RewriteRule::new(0, RuleId::LoopInit); starts[num_slots] as usize];
        for rule in &self.rules {
            if let Some(slot) = slot_of(rule) {
                rules[next[slot] as usize] = *rule;
                next[slot] += 1;
            }
        }
        RuleTable { starts, rules }
    }

    /// Serialised size in bytes (the quantity reported in Figure 10).
    #[must_use]
    pub fn byte_size(&self) -> u64 {
        self.to_bytes().len() as u64
    }

    /// Content digest of the schedule: a 64-bit FNV-1a hash over the exact
    /// serialised image ([`RewriteSchedule::to_bytes`]). Serving layers key
    /// cached artifacts by the guest binary's digest; this companion digest
    /// identifies the derived schedule itself, so a cache entry can be
    /// audited (binary digest in, schedule digest out) without comparing
    /// rule lists.
    #[must_use]
    pub fn content_digest(&self) -> u64 {
        // Same FNV-1a family as `janus_ir::digest` — kept inline because
        // janus-schedule deliberately has no dependencies.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Serialises the schedule.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.rules.len() * RULE_SIZE);
        out.extend_from_slice(b"JRWS");
        out.extend_from_slice(&SCHEDULE_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.executable.len() as u32).to_le_bytes());
        out.extend_from_slice(self.executable.as_bytes());
        out.extend_from_slice(&self.threads.to_le_bytes());
        out.extend_from_slice(&(self.rules.len() as u32).to_le_bytes());
        for r in &self.rules {
            out.extend_from_slice(&r.addr.to_le_bytes());
            out.extend_from_slice(&r.id.as_u16().to_le_bytes());
            out.extend_from_slice(&[0u8; 6]);
            for d in &r.data {
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
        out
    }

    /// Deserialises a schedule.
    ///
    /// # Errors
    ///
    /// Returns an error if the byte stream is truncated or malformed.
    pub fn from_bytes(bytes: &[u8]) -> Result<RewriteSchedule, ScheduleError> {
        let err = |reason: &str| ScheduleError::Malformed {
            reason: reason.to_string(),
        };
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], ScheduleError> {
            if n > bytes.len() - *pos {
                return Err(ScheduleError::Malformed {
                    reason: "unexpected end of schedule".to_string(),
                });
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        if take(&mut pos, 4)? != b"JRWS" {
            return Err(err("bad magic"));
        }
        let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        if version != SCHEDULE_FORMAT_VERSION {
            return Err(ScheduleError::Malformed {
                reason: format!(
                    "unsupported schedule format version {version} (this build reads {SCHEDULE_FORMAT_VERSION})"
                ),
            });
        }
        let name_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let executable = String::from_utf8(take(&mut pos, name_len)?.to_vec())
            .map_err(|_| err("executable name is not UTF-8"))?;
        let threads = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        // The count is untrusted: reserve only what the bytes can hold.
        const RULE_BYTES: usize = 16 + 8 * RULE_DATA_WORDS;
        if count > (bytes.len() - pos) / RULE_BYTES {
            return Err(err("rule count runs past the end of the schedule"));
        }
        let mut rules = Vec::with_capacity(count);
        for _ in 0..count {
            let addr = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
            let id_raw = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap());
            let id = RuleId::from_u16(id_raw).ok_or_else(|| err("unknown rule id"))?;
            let _pad = take(&mut pos, 6)?;
            let mut data = [0i64; RULE_DATA_WORDS];
            for d in &mut data {
                *d = i64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
            }
            rules.push(RewriteRule { addr, id, data });
        }
        Ok(RewriteSchedule {
            executable,
            threads,
            rules,
        })
    }
}

/// A schedule lowered over a dense instruction-slot space
/// ([`RewriteSchedule::lower`]): one row-compressed array of rules.
#[derive(Debug, Clone, Default)]
pub struct RuleTable {
    /// The rules of slot `s` are `rules[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    rules: Vec<RewriteRule>,
}

impl RuleTable {
    /// Rules attached to `slot` in schedule order (empty if none, or if
    /// `slot` is outside the table).
    #[must_use]
    pub fn at(&self, slot: usize) -> &[RewriteRule] {
        match self.starts.get(slot..slot.saturating_add(2)) {
            Some(&[start, end]) => &self.rules[start as usize..end as usize],
            _ => &[],
        }
    }
}

// Schedules (and their lowered tables) are cached content-addressed and
// shared across serving worker threads; keep them cheap-to-clone plain data.
const _: () = {
    const fn artifact<T: Clone + Send + Sync>() {}
    artifact::<RewriteSchedule>();
    artifact::<RuleTable>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_id_round_trip() {
        for id in RuleId::ALL {
            assert_eq!(RuleId::from_u16(id.as_u16()), Some(id));
        }
        assert_eq!(RuleId::from_u16(999), None);
        assert_eq!(RuleId::ALL.len(), 19, "Figure 3's 18 rules plus SPECULATE");
    }

    #[test]
    fn schedule_round_trip() {
        let mut s = RewriteSchedule::new("470.lbm");
        s.threads = 8;
        for i in 0..10 {
            s.push(
                RewriteRule::new(0x400000 + i * 0x20, RuleId::ALL[(i % 18) as usize])
                    .with_data(0, i as i64)
                    .with_data(5, -7),
            );
        }
        let bytes = s.to_bytes();
        let back = RewriteSchedule::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.byte_size(), bytes.len() as u64);
    }

    #[test]
    fn content_digest_tracks_rule_content() {
        let mut a = RewriteSchedule::new("470.lbm");
        a.push(RewriteRule::new(0x400100, RuleId::LoopInit).with_data(0, 7));
        let mut b = RewriteSchedule::new("470.lbm");
        b.push(RewriteRule::new(0x400100, RuleId::LoopInit).with_data(0, 7));
        assert_eq!(a.content_digest(), b.content_digest());
        b.push(RewriteRule::new(0x400180, RuleId::LoopFinish).with_data(0, 7));
        assert_ne!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn malformed_schedules_are_rejected() {
        assert!(RewriteSchedule::from_bytes(b"oops").is_err());
        let mut bytes = RewriteSchedule::new("x").to_bytes();
        bytes[0] = b'Z';
        assert!(RewriteSchedule::from_bytes(&bytes).is_err());
        // A future (or corrupted) format version is rejected, not misparsed.
        let mut bytes = RewriteSchedule::new("x").to_bytes();
        bytes[4..8].copy_from_slice(&(SCHEDULE_FORMAT_VERSION + 1).to_le_bytes());
        let err = RewriteSchedule::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("format version"));
        let s = {
            let mut s = RewriteSchedule::new("x");
            s.push(RewriteRule::new(0, RuleId::LoopInit));
            s
        };
        let bytes = s.to_bytes();
        assert!(RewriteSchedule::from_bytes(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn a_rule_count_the_bytes_cannot_hold_is_malformed() {
        let mut bytes = b"JRWS".to_vec();
        bytes.extend_from_slice(&SCHEDULE_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(b"470.lbm!");
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(bytes.len(), 28);
        let err = RewriteSchedule::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, ScheduleError::Malformed { .. }), "{err}");
    }

    #[test]
    fn index_groups_rules_by_address() {
        let mut s = RewriteSchedule::new("x");
        s.push(RewriteRule::new(0x400100, RuleId::MemMainStack).with_data(1, 14));
        s.push(RewriteRule::new(0x400200, RuleId::LoopUpdateBound));
        s.push(RewriteRule::new(0x400100, RuleId::MemPrivatise).with_data(1, 15));
        // Misaligned, and past the text: neither has a slot.
        s.push(RewriteRule::new(0x400101, RuleId::LoopInit));
        s.push(RewriteRule::new(0x500000, RuleId::LoopInit));
        // 0x400000 + 0x20 * slot, 32 slots.
        let slot_of = |addr: u64| {
            let off = addr.checked_sub(0x400000)?;
            (off % 0x20 == 0 && off / 0x20 < 32).then_some((off / 0x20) as usize)
        };
        let table = s.lower(32, slot_of);
        let kept: usize = (0..32).map(|slot| table.at(slot).len()).sum();
        assert_eq!(kept, 3, "the two unreachable rules are dropped");
        let at_8 = table.at(8);
        assert_eq!(at_8.len(), 2);
        assert_eq!(at_8[0].id, RuleId::MemMainStack, "order preserved");
        assert_eq!(at_8[1].id, RuleId::MemPrivatise);
        assert_eq!(table.at(16)[0].id, RuleId::LoopUpdateBound);
        assert!(table.at(9).is_empty());
        assert!(table.at(32).is_empty() && table.at(usize::MAX).is_empty());
        assert!(RuleTable::default().at(0).is_empty());
    }

    #[test]
    fn rules_with_id_and_at_filter_correctly() {
        let mut s = RewriteSchedule::new("x");
        s.push(RewriteRule::new(1, RuleId::LoopInit).with_data(0, 3));
        s.push(RewriteRule::new(2, RuleId::LoopFinish).with_data(0, 3));
        s.push(RewriteRule::new(3, RuleId::LoopInit).with_data(0, 4));
        let with_id = s.rules().iter().filter(|r| r.id == RuleId::LoopInit);
        assert_eq!(with_id.count(), 2);
        assert_eq!(s.rules().iter().filter(|r| r.addr == 2).count(), 1);
        assert_eq!(s.rules()[0].loop_id(), 3);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn display_formats_are_readable() {
        let r = RewriteRule::new(0x400900, RuleId::MemBoundsCheck).with_data(0, 2);
        let text = r.to_string();
        assert!(text.contains("0x400900"));
        assert!(text.contains("MEM_BOUNDS_CHECK"));
    }
}

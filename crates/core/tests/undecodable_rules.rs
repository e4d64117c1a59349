//! A rewrite rule whose data words do not decode costs its loop, never the
//! host and never the loop's meaning. The DBM reads registers named by
//! `LOOP_INIT`, `MEM_PRIVATISE` and `MEM_BOUNDS_CHECK` data words (an
//! induction variable or an address base must be a GPR), the bound
//! compare and the continue condition `LOOP_INIT` names, and the call under
//! each `TX_START`; a schedule comes from bytes janus may not have produced,
//! so a word may name a register outside the file, a variable kind the DBM
//! does not know, an address with no instruction, an instruction of the
//! wrong kind, or a condition code that is no condition or names one the
//! rule generator never emits (only Ne, Lt, Le, Gt and Ge bound a counted
//! loop).
//! `PreparedDbm::new` drops every loop with such a rule, as it drops one
//! without `LOOP_INIT`: the run finishes with the interpreter's integer
//! outputs, one parallel loop fewer, and exactly what a schedule that never
//! named the loop yields. It never runs a loop with a rule skipped — a
//! reduction that is not privatised would race.

use janus_compile::Compiler;
use janus_core::{DbmConfig, Janus, PreparedDbm, VarSpec};
use janus_ir::{Cond, Reg, INST_SIZE};
use janus_schedule::{RewriteRule, RewriteSchedule, RuleId};
use janus_vm::{Process, Vm};
use janus_workloads::workload;

/// Register byte of a `MEM_BOUNDS_CHECK` side word set to `reg`, marking
/// the side register-based.
fn side_register(word: i64, reg: i64) -> i64 {
    (word & !0xff00) | 1 | (reg << 8)
}

/// Each case: a binary, the rule kind whose first rule is corrupted and how.
type Case = (&'static str, RuleId, fn(&mut RewriteRule));

const CASES: &[Case] = &[
    // An induction register past the file.
    ("470.lbm", RuleId::LoopInit, |rule| {
        rule.data[1] = 0;
        rule.data[2] = 200;
    }),
    // 260 is r4 once truncated to a byte: not a register either.
    ("470.lbm", RuleId::LoopInit, |rule| {
        rule.data[1] = 0;
        rule.data[2] = 260;
    }),
    // An induction variable in the vector file: it is an integer. (A
    // speculative loop used to write it with a GPR-only store.)
    ("470.lbm", RuleId::LoopInit, |rule| {
        rule.data[1] = 0;
        rule.data[2] = i64::from(Reg::V0.raw());
    }),
    ("spec.histogram", RuleId::LoopInit, |rule| {
        rule.data[1] = 0;
        rule.data[2] = i64::from(Reg::V0.raw());
    }),
    // A bounds-check base register past the file...
    ("410.bwaves", RuleId::MemBoundsCheck, |rule| {
        rule.data[1] = side_register(rule.data[1], 200);
    }),
    ("436.cactusADM", RuleId::MemBoundsCheck, |rule| {
        rule.data[3] = side_register(rule.data[3], 200);
    }),
    ("459.GemsFDTD", RuleId::MemBoundsCheck, |rule| {
        rule.data[1] = side_register(rule.data[1], 200);
    }),
    // ...and one in the vector file: an address base is a GPR.
    ("459.GemsFDTD", RuleId::MemBoundsCheck, |rule| {
        rule.data[3] = side_register(rule.data[3], 20);
    }),
    // A reduction variable of no known kind.
    ("410.bwaves", RuleId::MemPrivatise, |rule| rule.data[1] = 9),
    // A header at an address with no instruction.
    ("470.lbm", RuleId::LoopInit, |rule| rule.addr = 0),
    // A bound compare at an address with no instruction...
    ("470.lbm", RuleId::LoopInit, |rule| rule.data[4] = 0),
    // ...and at the branch after the compare, which is no compare.
    ("470.lbm", RuleId::LoopInit, |rule| {
        rule.data[4] += INST_SIZE as i64;
    }),
    // A continue condition past the code table, negative, equality and
    // unsigned below: none bounds a counted loop.
    ("470.lbm", RuleId::LoopInit, |rule| rule.data[5] = 8),
    ("470.lbm", RuleId::LoopInit, |rule| rule.data[5] = -1),
    ("470.lbm", RuleId::LoopInit, |rule| {
        rule.data[5] = i64::from(Cond::Eq.code());
    }),
    ("470.lbm", RuleId::LoopInit, |rule| {
        rule.data[5] = i64::from(Cond::Below.code());
    }),
    // A transaction start moved off its shared-library call: the call
    // would run outside the STM.
    ("410.bwaves", RuleId::TxStart, |rule| {
        rule.addr += INST_SIZE as u64;
    }),
];

#[test]
fn a_loop_with_an_undecodable_rule_runs_sequentially() {
    let janus = Janus::new();
    for &(name, id, corrupt) in CASES {
        let binary = Compiler::new()
            .compile(&workload(name).expect("known workload").train_program)
            .expect("workload compiles");
        let schedule = janus.prepare(&binary, &[]).expect("prepares").schedule;
        let process = Process::load(&binary).expect("loads");
        let mut vm = Vm::new(process.clone());
        vm.run().expect("the interpreter finishes");

        // The first `id` rule corrupted, and the schedule without its loop.
        let mut bad = RewriteSchedule::new(name);
        let mut without = RewriteSchedule::new(name);
        let victim = schedule
            .rules()
            .iter()
            .position(|rule| rule.id == id)
            .unwrap_or_else(|| panic!("{name} has a {id:?} rule"));
        let loop_id = schedule.rules()[victim].loop_id();
        for (k, rule) in schedule.rules().iter().enumerate() {
            let mut rule = *rule;
            if k == victim {
                corrupt(&mut rule);
            }
            bad.push(rule);
            if rule.loop_id() != loop_id {
                without.push(rule);
            }
        }

        let config = DbmConfig {
            threads: 2,
            adaptive: false,
            ..janus.dbm_config()
        };
        let good = PreparedDbm::new(process.clone(), &schedule, config);
        let dbm = PreparedDbm::new(process.clone(), &bad, config);
        assert_eq!(
            dbm.num_parallel_loops() + 1,
            good.num_parallel_loops(),
            "{name}, {id:?}"
        );
        let run = dbm
            .execute(&[])
            .unwrap_or_else(|e| panic!("{name}, {id:?}: {e}"));
        assert_eq!(run.output_ints, vm.output_ints(), "{name}, {id:?}");
        // The loop runs as if the schedule had never named it; floats match
        // the interpreter's up to the other loops' parallel reductions.
        let dropped = PreparedDbm::new(process, &without, config)
            .execute(&[])
            .expect("runs");
        assert_eq!(run.output_floats, dropped.output_floats, "{name}, {id:?}");
        assert_eq!(run.memory_digest, dropped.memory_digest, "{name}, {id:?}");
        assert_eq!(run.cycles, dropped.cycles, "{name}, {id:?}");
    }
}

#[test]
fn register_words_decode_only_inside_the_file() {
    assert_eq!(VarSpec::decode(0, 4), Some(VarSpec::Reg(Reg::R4)));
    assert_eq!(VarSpec::decode(0, 31), Some(VarSpec::Reg(Reg::V15)));
    for value in [32, 200, 260, -1, i64::MAX] {
        assert_eq!(VarSpec::decode(0, value), None, "{value}");
    }
}

#!/usr/bin/env sh
# Local CI gate for helios.
#
# Runs the same four checks a hosted pipeline would, in order of
# increasing strictness. The root crate is a package as well as the
# workspace root, so every step passes --workspace explicitly: a bare
# `cargo build` would cover only the root package and leave e.g. the
# helios-cli binary stale. All third-party dependencies are vendored as
# workspace members under vendor/ (see DESIGN.md §5), so every step
# works fully offline — no registry, no network, no lockfile updates.
# If cargo still tries to reach a registry, check that Cargo.toml's
# [workspace.dependencies] all point at vendor/ paths.
#
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> scheduler conformance battery"
cargo test -q --test sched_conformance

echo "==> annealing reference oracle at grid size (release)"
# AnnealingScheduler must match its plain reference decoder bit for bit
# on the paper grid's five families at 100 tasks, on its four platforms,
# with its 500-iteration budget; ignored in the debug suite for time,
# about a second in release.
cargo test --release -q -p helios-sched every_family_at_grid_size -- --ignored

echo "==> large-workflow placement golden (release)"
# HEFT, CPOP, PEFT, MCT, OLB and round-robin on four families at 2000
# tasks on workstation and hpc_node, where the device timelines grow
# long enough to be block-indexed: every placement bit for bit as
# pinned. The debug suite runs it too; this step keeps it in release.
cargo test --release -q --test placement_golden insertion_planners_place_large_workflows_as_pinned

echo "==> resilience battery"
cargo test -q --test fault_paths

echo "==> elasticity battery (join/drain/preempt, dead capacity, exhaustion)"
cargo test -q --test elastic_paths

echo "==> extended fault battery (link faults, domains, lineage recovery)"
cargo test -q -p helios-core resilience::
cargo test -q -p helios-core campaign::

echo "==> cross-path execution-core conformance"
# The hook-composed core with every feature hook off must be
# byte-identical to the plain Engine (property over random DAGs ×
# presets × schedulers), and every execution mode must match its
# committed golden report — the before/after anchor for refactors that
# claim byte-identity.
cargo test -q -p helios-core exec::conformance
cargo test -q --test exec_golden

echo "==> resilient-runner size guard"
# The runner must stay a thin hook set over the execution core; shared
# step-loop or staging math creeping back in shows up as line growth.
runner=crates/core/src/resilience/runner.rs
runner_lines=$(wc -l < "$runner")
if [ "$runner_lines" -gt 1000 ]; then
    echo "$runner has $runner_lines lines (limit 1000): move shared logic into core/src/exec" >&2
    exit 1
fi
echo "$runner: $runner_lines lines (limit 1000)"

echo "==> one step loop guard"
# Every executor is a hook set over exec::drive, the one event loop. A
# `while let Some(..) = <queue>.pop()` loop anywhere else in helios-core
# is a second step loop. The lineage walk in recovery.rs pops a DFS
# stack, not an event queue, and is exempt.
step_loops=$(grep -rnE 'while let Some\(.*\) = [A-Za-z_.()]*\.pop\(\)' \
    crates/core/src --include='*.rs' \
    | grep -v '^crates/core/src/exec/' \
    | grep -v '^crates/core/src/resilience/recovery\.rs:.*= stack\.pop()' || true)
if [ -n "$step_loops" ]; then
    echo "$step_loops" >&2
    echo "event loops outside crates/core/src/exec: express the path as Hooks over drive" >&2
    exit 1
fi
echo "crates/core/src: one step loop (exec::drive)"

echo "==> one spec resolution guard"
# A sweep resolves its spec once per run: validation builds every
# family's generator class, every platform and the cells' engine config
# (CampaignSpec::resolve), and each cell reads them. A name lookup or
# config build anywhere else in helios-core is a cell re-resolving its
# set-up. The fuzz generator draws specs from the presets and is exempt.
resolutions=$(grep -rnE 'presets::by_name\(|family_class\(|\.resilience_config\(\)|\.elasticity_config\(\)' \
    crates/core/src --include='*.rs' \
    | grep -v '^crates/core/src/campaign/spec\.rs:' \
    | grep -v '^crates/core/src/fuzz/gen\.rs:' || true)
if [ -n "$resolutions" ]; then
    echo "$resolutions" >&2
    echo "spec resolution outside campaign/spec.rs: read the run's Resolved set-up instead" >&2
    exit 1
fi
echo "crates/core/src: one spec resolution (CampaignSpec::resolve)"

# Runs the awk rules in $1 over the Rust files named on stdin, skipping
# test code: every item under a `#[cfg(test)]` line, which may sit
# anywhere in a file. That item is skipped from the attribute to its
# last line: the first line at the attribute's indentation that is a
# lone `}` or ends in `;` or `,` (a closed module, function or block, a
# statement, a field), or the first line indented less (the enclosing
# block ended). The guards below that read non-test code go through it.
non_test_awk() {
    xargs awk '
        FNR == 1 { skip = 0 }
        skip && !/^ *$/ {
            match($0, /^ */)
            if (RLENGTH == indent && ($0 ~ /^ *}$/ || $0 ~ /[;,]$/)) { skip = 0; next }
            if (RLENGTH >= indent) next
            skip = 0
        }
        skip { next }
        /^ *#\[cfg\(test\)\]$/ { match($0, /^ */); indent = RLENGTH; skip = 1; next }
    '"$1"
}

echo "==> one cost model guard"
# What a task costs on a device, where it may run, the mean costs, the
# ranks and the SLR bound are derived in one place, the cost model
# (crates/sched/src/cost.rs), built once per (workflow, platform) and
# read by the planners, the SLR bound and the runners. A call of one of
# the derivations below anywhere else in helios-sched or helios-core
# derives again what the model holds; method calls on the model do not
# match. Schedule::validate checks plans made elsewhere, so its
# feasibility check is exempt. So is test code: files included only by
# tests (*_tests.rs, testkit.rs, exec/conformance.rs), and every
# `#[cfg(test)]` item (non_test_awk).
derivations=$(find crates/sched/src crates/core/src -name '*.rs' \
    ! -name '*_tests.rs' ! -name 'testkit.rs' ! -path '*/exec/conformance.rs' | sort \
    | non_test_awk '
        /[^._[:alnum:]](placement_feasible|mean_exec_times|mean_comm_times|(bottom|top)_levels(_with)?|critical_path(_with)?)\(|\.mean_execution_time\(|execution_time\(.*nominal_level\(\)/ {
            print FILENAME ":" FNR ":" $0
        }' \
    | grep -v '^crates/sched/src/cost\.rs:' \
    | grep -v '^crates/sched/src/schedule\.rs:[0-9]*: *if !crate::placement_feasible(device, wf\.task(t)?) {$' || true)
if [ -n "$derivations" ]; then
    echo "$derivations" >&2
    echo "cost derivations outside crates/sched/src/cost.rs: read the CostModel instead" >&2
    exit 1
fi
echo "crates/sched/src, crates/core/src: one cost model (CostModel)"

echo "==> one device-probe guard"
# Every list planner in helios-sched and helios-energy chooses a task's
# device from one placement probe, SchedContext::probe in
# crates/sched/src/context.rs: each feasible device's data-ready time,
# start and finish, with the predecessor terms gathered once. A loop
# over a task's feasible devices anywhere else probes a second way.
probe_loops=$(grep -rnE 'for &[[:alnum:]_]+ in .*feasible_devices\(' \
    crates/sched/src crates/energy/src \
    | grep -v '^crates/sched/src/context\.rs:' || true)
if [ -n "$probe_loops" ]; then
    echo "$probe_loops" >&2
    echo "device loops outside crates/sched/src/context.rs: choose from SchedContext::probe instead" >&2
    exit 1
fi
echo "crates/sched/src, crates/energy/src: one device probe (SchedContext::probe)"

echo "==> one durable-format guard"
# The cell journal and the columnar store are told apart, read and
# recovered in one place, helios_core::Durable
# (crates/core/src/campaign/durable.rs). Non-test code in the CLI and
# the fuzz harness names neither format's readers nor its magic, and
# uses no format name as a value: a `== "journal"` or a
# `Some("store")` there is a second fork on the format. Flag names
# passed to Args (`args.get("journal")`, a `&["...", "store"]` flag
# list) are not values and are allowed. Test code is skipped
# (non_test_awk).
durable_forks=$(find crates/cli/src crates/core/src/fuzz -name '*.rs' | sort \
    | non_test_awk '
        {
            line = $0
            gsub(/\.(get|get_all|require)\("(journal|store)"\)/, "", line)
            gsub(/&\[("[a-z_-]+", *)*"[a-z_-]+",? *\]/, "", line)
            if (line ~ /read_journal|recover_journal|read_store|recover_store|JOURNAL_MAGIC|STORE_MAGIC|"(journal|store)"/)
                print FILENAME ":" FNR ":" $0
        }' || true)
if [ -n "$durable_forks" ]; then
    echo "$durable_forks" >&2
    echo "durable-format forks outside crates/core/src/campaign/durable.rs: go through helios_core::Durable instead" >&2
    exit 1
fi
echo "crates/cli/src, crates/core/src/fuzz: one durable-format vocabulary (Durable)"

echo "==> one salvage type guard"
# A salvaged journal or store has one shape, helios_core::DurableSalvage
# (crates/core/src/campaign/durable.rs), built in one place: the framed
# layer's read (crates/core/src/framed.rs). Each format's reader only
# decodes its payloads into it. So in the non-test code of
# crates/core/src, a struct, enum or type alias named `*Salvage` other
# than DurableSalvage is a second salvage shape, and a second
# `fn to_shard_report` bridges one to the shard report again. Test code
# is skipped (`*_tests.rs` files and non_test_awk).
salvage_forks=$(find crates/core/src -name '*.rs' ! -name '*_tests.rs' | sort \
    | non_test_awk '
        function site(k) { n[k]++; at[k] = at[k] FILENAME ":" FNR ":" $0 "\n" }
        /(^|[^[:alnum:]_])(struct|enum|type) [[:alnum:]_]*Salvage([^[:alnum:]_]|$)/ \
            && !/(struct|enum|type) DurableSalvage([^[:alnum:]_]|$)/ { site(1) }
        /(^|[^[:alnum:]_])fn to_shard_report([^[:alnum:]_]|$)/ { site(2) }
        END {
            printf "%s", at[1]
            if (n[2] != 1) printf "%d fns named to_shard_report, not 1:\n%s", n[2], at[2]
        }' || true)
if [ -n "$salvage_forks" ]; then
    echo "$salvage_forks" >&2
    echo "a second salvage shape: read durable files into helios_core::DurableSalvage through framed::Format::read" >&2
    exit 1
fi
echo "crates/core/src: one salvage type (DurableSalvage) and one to_shard_report"

echo "==> one resilient transition guard"
# Each state change of the resilient runner has one routine, and every
# trigger (a device fault, a domain strike, an elastic departure) goes
# through it: a device degrades in `degrade`, a link goes down in
# `strike_link`, devices leave the run in `remove_devices`, and churn
# gaps are drawn by `FailureDistribution::sample` in helios-sim. So in
# the non-test code of crates/core/src/resilience a device
# `set_degraded(` call, a `LinkRepair` push and a
# `rematerialize_lost_products()` call may each appear on one line at
# most, and an arm of a match on `FailureDistribution` on none: a
# further line is a second copy of the transition. Test code is skipped
# (`*_tests.rs` files and non_test_awk).
transition_forks=$(find crates/core/src/resilience -name '*.rs' ! -name '*_tests.rs' | sort \
    | non_test_awk '
        BEGIN { split("1 1 1 0", most) }
        function site(k) { n[k]++; at[k] = at[k] FILENAME ":" FNR ":" $0 "\n" }
        /[^_]avail\.set_degraded\(/ { site(1) }
        /Ev::LinkRepair \{( link:|$)/ { site(2) }
        /\.rematerialize_lost_products\(\)/ { site(3) }
        /FailureDistribution::[[:alnum:]]+ \{[^}]*\} =>/ { site(4) }
        END { for (k = 1; k <= 4; k++) if (n[k] > most[k]) printf "%s", at[k] }' || true)
if [ -n "$transition_forks" ]; then
    echo "$transition_forks" >&2
    echo "a resilient transition with two sites: route the trigger through degrade, strike_link, remove_devices or FailureDistribution::sample" >&2
    exit 1
fi
echo "crates/core/src/resilience: one routine per transition (degrade, strike_link, remove_devices, sample)"

echo "==> one summary site guard"
# A sweep report's per-combination means are derived from its cells on
# demand, by SweepReport::summary (crates/core/src/campaign/sweep.rs),
# so a merge or a read that wants only the cells never pays for them.
# In non-test code, a `summarize_cells(` call outside the query
# evaluator (crates/core/src/store/exec.rs, which defines it) and that
# one method builds a summary eagerly again. Comment lines and test code
# (non_test_awk) are skipped.
summary_sites=$(find crates/*/src src -name '*.rs' ! -path 'crates/core/src/store/exec.rs' | sort \
    | non_test_awk '
        FNR == 1 { in_fn = "" }
        /^ *(pub(\([a-z]+\))? )?fn / { in_fn = $0 }
        /^ *\/\// { next }
        /summarize_cells\(/ {
            if (FILENAME != "crates/core/src/campaign/sweep.rs" \
                || in_fn !~ /^    pub fn summary\(&self\) -> Vec<SummaryRow> \{$/)
                print FILENAME ":" FNR ":" $0
        }' || true)
if [ -n "$summary_sites" ]; then
    echo "$summary_sites" >&2
    echo "an eager summary outside SweepReport::summary: call report.summary() where the means are read" >&2
    exit 1
fi
echo "crates/*/src, src: one summary site (SweepReport::summary)"

echo "==> T15 ensemble table pin"
# The release t15_ensemble table (18 ensemble runs, about a second) must
# match its committed copy, with one worker and with two.
for jobs in 1 2; do
    target/release/t15_ensemble --jobs "$jobs" \
        | diff -u crates/bench/tests/fixtures/t15_ensemble.txt -
done
echo "t15_ensemble table matches its pin"

echo "==> sharded sweep byte-identity smoke"
# The release binary sweeps the committed smoke spec unsharded, then as
# a 2-shard partition recombined by `campaign merge`; the two reports
# must be byte-identical (the tier-1 test suite pins the same property
# in-process for 1/1, 2, and 4 shards).
sweep_tmp="$(mktemp -d)"
trap 'rm -rf "$sweep_tmp"' EXIT
helios=target/release/helios
"$helios" campaign run --spec examples/specs/smoke.json --out "$sweep_tmp/full.json" > /dev/null
"$helios" campaign run --spec examples/specs/smoke.json --shard 1/2 --out "$sweep_tmp/s1.json" > /dev/null
"$helios" campaign run --spec examples/specs/smoke.json --shard 2/2 --out "$sweep_tmp/s2.json" > /dev/null
"$helios" campaign merge --in "$sweep_tmp/s1.json" --in "$sweep_tmp/s2.json" \
    --out "$sweep_tmp/merged.json" > /dev/null
cmp "$sweep_tmp/full.json" "$sweep_tmp/merged.json"
# Shard order does not matter: the reverse order merges to the same bytes.
"$helios" campaign merge --in "$sweep_tmp/s2.json" --in "$sweep_tmp/s1.json" \
    --out "$sweep_tmp/merged_rev.json" > /dev/null
cmp "$sweep_tmp/full.json" "$sweep_tmp/merged_rev.json"
echo "2-shard merge, in either order, is byte-identical to the unsharded sweep"

echo "==> closed spec schema (an unknown key is refused by name)"
# A misspelled knob must not run another experiment in silence: the
# release binary refuses the smoke spec with one unknown key added,
# exits 1 (an input error, not a usage error) and names the key.
typo_spec="$sweep_tmp/typo_spec.json"
sed 's/"noise_cv": 0.05/"noise_cv": 0.05, "noise_cvv": 0.3/' examples/specs/smoke.json \
    > "$typo_spec"
grep -q '"noise_cvv"' "$typo_spec"
typo_status=0
"$helios" campaign run --spec "$typo_spec" --out "$sweep_tmp/typo.json" \
    > /dev/null 2> "$sweep_tmp/typo.err" || typo_status=$?
if [ "$typo_status" -ne 1 ] || ! grep -q 'noise_cvv' "$sweep_tmp/typo.err"; then
    cat "$sweep_tmp/typo.err" >&2
    echo "spec with unknown key noise_cvv: exit $typo_status, expected 1 naming the key" >&2
    exit 1
fi
echo "unknown spec key refused: $(cat "$sweep_tmp/typo.err")"

echo "==> oversized specs are refused"
# A platform, grid or workflow past its declared range must be refused
# by spec validation, naming the key, before anything is built or
# allocated: cluster<N> builds N^2 routes, a grid allocates its cells up
# front, and a generator allocates its tasks.
# Each case runs under a 1 GB address-space limit and a 10 s timeout,
# so a regression fails fast instead of exhausting the machine.
for case in \
    'platforms|s/"workstation"/"cluster100000"/' \
    'tasks|s/"tasks": 24/"tasks": 1000000000000/' \
    'seeds.count|s/"count": 2/"count": 1000000000000/' \
    'seeds.count|s/"montage", "sipht"/"montage", "sipht", "ligo", "epigenomics"/; s/"count": 2/"count": 4611686018427387904/'; do
    key=${case%%|*}
    sed "${case#*|}" examples/specs/smoke.json > "$sweep_tmp/oversized.json"
    oversized_status=0
    (ulimit -v 1048576 && timeout 10 "$helios" campaign run \
        --spec "$sweep_tmp/oversized.json" --out "$sweep_tmp/oversized_out.json") \
        > /dev/null 2> "$sweep_tmp/oversized.err" || oversized_status=$?
    if [ "$oversized_status" -ne 1 ] || ! grep -q "$key" "$sweep_tmp/oversized.err"; then
        cat "$sweep_tmp/oversized.err" >&2
        echo "oversized spec ($case): exit $oversized_status, expected 1 naming $key" >&2
        exit 1
    fi
    echo "refused: $(cat "$sweep_tmp/oversized.err")"
done

echo "==> paper-grid pin and workflow-reuse identity"
# The full 1200-cell paper grid, pinned by digest in release (ignored in
# the debug suite for time). Then the release binary sweeps it
# unsharded, with 2 workers, and as a 3-shard partition recombined by
# `campaign merge`: cells of one (family, seed) share one generated
# workflow, and a stride of 3 (not a multiple of the 5 seeds) interleaves
# those cells differently in every shard, so the three reports must
# still be byte-identical.
cargo test --release -q --test sweep_shards -- --ignored
gspec=examples/specs/paper_grid.json
"$helios" campaign run --spec "$gspec" --out "$sweep_tmp/gfull.json" > /dev/null
"$helios" campaign run --spec "$gspec" --jobs 2 --out "$sweep_tmp/gjobs.json" > /dev/null
for k in 1 2 3; do
    "$helios" campaign run --spec "$gspec" --shard "$k/3" --out "$sweep_tmp/g$k.json" > /dev/null
done
"$helios" campaign merge --in "$sweep_tmp/g1.json" --in "$sweep_tmp/g2.json" \
    --in "$sweep_tmp/g3.json" --out "$sweep_tmp/gmerged.json" > /dev/null
cmp "$sweep_tmp/gfull.json" "$sweep_tmp/gjobs.json"
cmp "$sweep_tmp/gfull.json" "$sweep_tmp/gmerged.json"
echo "paper grid: --jobs 2 and a 3-shard merge are byte-identical to the unsharded sweep"

echo "==> kill-and-resume smoke (resilient spec)"
# A store-backed sweep of the resilient spec is killed after one cell
# (test hook, nonzero exit expected), resumed against the store, and its
# `--out` view must come out byte-identical to an uninterrupted run. The
# same spec is also swept as a 2-shard partition to pin byte-identity
# under resilience.
rspec=examples/specs/resilient_smoke.json
"$helios" campaign run --spec "$rspec" --out "$sweep_tmp/rfull.json" > /dev/null
if HELIOS_SWEEP_ABORT_AFTER=1 "$helios" campaign run --spec "$rspec" \
    --store "$sweep_tmp/rresume.store" > /dev/null 2>&1; then
    echo "aborted sweep unexpectedly exited zero" >&2
    exit 1
fi
"$helios" campaign run --spec "$rspec" --store "$sweep_tmp/rresume.store" \
    --out "$sweep_tmp/rresume.json" > /dev/null
cmp "$sweep_tmp/rfull.json" "$sweep_tmp/rresume.json"
"$helios" campaign run --spec "$rspec" --shard 1/2 --out "$sweep_tmp/r1.json" > /dev/null
"$helios" campaign run --spec "$rspec" --shard 2/2 --out "$sweep_tmp/r2.json" > /dev/null
"$helios" campaign merge --in "$sweep_tmp/r1.json" --in "$sweep_tmp/r2.json" \
    --out "$sweep_tmp/rmerged.json" > /dev/null
cmp "$sweep_tmp/rfull.json" "$sweep_tmp/rmerged.json"
echo "kill-and-resume and 2-shard merge are byte-identical under resilience"

echo "==> kill -9 chaos loop (journal and store survive hard kills)"
# The release binary sweeps a 6000-cell resilient spec through a durable
# sink while being kill -9'd at randomized delays: at least 5 hard kills
# land wherever they land — between records or mid-record. `campaign
# recover` then salvages the file (truncating any torn tail) and a final
# run completes it; the compiled view must be byte-identical to a run
# that was never interrupted. The loop runs once per durable sink flag:
# `--journal` (one fsync per cell: a completion rides the next cell's
# attempt record) and `--store` (fsync'd per row group), which share one
# sweep loop. The journal loop runs at `--jobs 1` and at `--jobs 2`: with
# one worker a completion always rides that worker's next attempt, with
# two it may ride the other worker's. HELIOS_POISON_LIMIT is raised so a cell
# the random kills keep hitting is retried rather than quarantined
# (quarantine changes the bytes by design; the store ignores it).
cspec="$sweep_tmp/chaos_spec.json"
sed 's/"count": 3/"count": 3000/' "$rspec" > "$cspec"
"$helios" campaign run --spec "$cspec" --out "$sweep_tmp/chaos_ref.json" > /dev/null
chaos_kill_loop() {
    sink=$1
    jobs=$2
    chaos_file="$sweep_tmp/chaos.$jobs.$sink"
    kills=0
    tries=0
    while [ "$kills" -lt 5 ]; do
        tries=$((tries + 1))
        if [ "$tries" -gt 60 ]; then
            echo "chaos loop could not land 5 kills on --$sink in $tries tries" >&2
            exit 1
        fi
        HELIOS_POISON_LIMIT=100 "$helios" campaign run --spec "$cspec" \
            --jobs "$jobs" "--$sink" "$chaos_file" --out "$sweep_tmp/chaos.json" \
            > /dev/null 2>&1 &
        chaos_pid=$!
        # POSIX sh has no $RANDOM: draw two bytes from /dev/urandom for a
        # randomized 20-490 ms kill delay.
        delay=$(od -An -N2 -tu2 /dev/urandom | tr -d ' ')
        sleep "$(printf '0.%03d' $((delay % 470 + 20)))"
        kill -9 "$chaos_pid" 2> /dev/null || true
        if wait "$chaos_pid" 2> /dev/null; then
            # The sweep finished before the kill landed: the file is
            # complete, so restart the chaos from an empty one.
            rm -f "$chaos_file" "$sweep_tmp/chaos.json"
        else
            kills=$((kills + 1))
        fi
    done
    "$helios" campaign recover "$chaos_file" > /dev/null
    HELIOS_POISON_LIMIT=100 "$helios" campaign run --spec "$cspec" \
        --jobs "$jobs" "--$sink" "$chaos_file" --out "$sweep_tmp/chaos.json" > /dev/null
    cmp "$sweep_tmp/chaos_ref.json" "$sweep_tmp/chaos.json"
    rm -f "$sweep_tmp/chaos.json"
    echo "--$sink --jobs $jobs survived $kills hard kills ($tries runs) byte-identically"
}
chaos_kill_loop journal 1
chaos_kill_loop journal 2
chaos_kill_loop store 1

echo "==> torn-write smoke (mid-record kill is salvaged, not hand-repaired)"
# The torn-write hook persists half of one record's bytes and dies —
# the exact shape a kill mid-`write(2)` leaves behind. Recovery must
# truncate the torn tail, report it, and resume byte-identically.
if HELIOS_JOURNAL_TORN_WRITE=3 "$helios" campaign run --spec "$rspec" \
    --journal "$sweep_tmp/torn.journal" > /dev/null 2>&1; then
    echo "torn-write injection unexpectedly exited zero" >&2
    exit 1
fi
"$helios" campaign recover "$sweep_tmp/torn.journal" | grep -q "torn byte(s)"
"$helios" campaign run --spec "$rspec" \
    --journal "$sweep_tmp/torn.journal" --out "$sweep_tmp/torn.json" > /dev/null
cmp "$sweep_tmp/rfull.json" "$sweep_tmp/torn.json"
# Journals are also merge inputs in their own right.
"$helios" campaign merge --in "$sweep_tmp/torn.journal" \
    --out "$sweep_tmp/torn_merged.json" > /dev/null
cmp "$sweep_tmp/rfull.json" "$sweep_tmp/torn_merged.json"
echo "torn journal salvaged and merged byte-identically"

echo "==> partition smoke (correlated rack outage + interconnect faults)"
# The full three-class fault stack through the release binary: a rack
# domain that permanently kills node1 and severs the only inter-node
# link of cluster2, on top of per-link interconnect faults. The sweep
# must survive (lost cells are measurements) and a 2-shard partition
# must recombine byte-identical to the unsharded run.
pspec=examples/specs/partition_smoke.json
"$helios" campaign run --spec "$pspec" --out "$sweep_tmp/pfull.json" > /dev/null
"$helios" campaign run --spec "$pspec" --shard 1/2 --out "$sweep_tmp/p1.json" > /dev/null
"$helios" campaign run --spec "$pspec" --shard 2/2 --out "$sweep_tmp/p2.json" > /dev/null
"$helios" campaign merge --in "$sweep_tmp/p1.json" --in "$sweep_tmp/p2.json" \
    --out "$sweep_tmp/pmerged.json" > /dev/null
cmp "$sweep_tmp/pfull.json" "$sweep_tmp/pmerged.json"
echo "2-shard merge is byte-identical under the full fault stack"

echo "==> elastic-capacity smoke (spot preempt + drain + churn)"
# Capacity events through the release binary: a timed preempt/drain/join
# plan plus a spot-churn renewal, with the benign synthesized resilience
# stack. A 2-shard partition must recombine byte-identical to the
# unsharded sweep — capacity realizations are keyed by entity id, never
# by worker or shard.
espec=examples/specs/elastic_smoke.json
"$helios" campaign run --spec "$espec" --out "$sweep_tmp/efull.json" > /dev/null
grep -q '"preemptions"' "$sweep_tmp/efull.json"
"$helios" campaign run --spec "$espec" --shard 1/2 --out "$sweep_tmp/e1.json" > /dev/null
"$helios" campaign run --spec "$espec" --shard 2/2 --out "$sweep_tmp/e2.json" > /dev/null
"$helios" campaign merge --in "$sweep_tmp/e1.json" --in "$sweep_tmp/e2.json" \
    --out "$sweep_tmp/emerged.json" > /dev/null
cmp "$sweep_tmp/efull.json" "$sweep_tmp/emerged.json"
echo "2-shard merge is byte-identical under elastic capacity"

echo "==> adversarial fuzz smoke (differential oracles)"
# A deterministic slice of the fuzz harness through the release binary:
# 25 random campaign specs from seed 7, each checked against the
# differential oracles (hooks-off identity, --jobs and shard
# byte-identity, fault-free lower bound, schedule invariants). Any
# divergence shrinks to a fixture and fails this step.
"$helios" fuzz --seed 7 --runs 25

echo "==> bugbase replay (fixed bugs stay fixed)"
# Every committed fixture replays through the oracles, via the binary
# and via the in-process harness test; the count cross-check makes a
# fixture the replay did not pick up a hard failure.
fixture_count=$(ls tests/bugbase/*.json | wc -l | tr -d ' ')
"$helios" fuzz --replay tests/bugbase | tee "$sweep_tmp/replay.log"
if ! grep -q "replayed $fixture_count fixture(s), 0 diverging" "$sweep_tmp/replay.log"; then
    echo "bugbase replay missed fixtures: expected $fixture_count, see replay.log" >&2
    exit 1
fi
cargo test -q --test bugbase

echo "==> infeasible-grid smoke (incomplete cells survive shard merge)"
# cybershake on edge_soc can never be placed: every cell must come back
# as an `infeasible` measurement with null summary means, and a 2-shard
# partition must recombine byte-identical to the unsharded run.
ispec=examples/specs/infeasible_smoke.json
"$helios" campaign run --spec "$ispec" --out "$sweep_tmp/ifull.json" > /dev/null
grep -q '"incomplete_reason": "infeasible"' "$sweep_tmp/ifull.json"
grep -q '"mean_makespan_secs": null' "$sweep_tmp/ifull.json"
"$helios" campaign run --spec "$ispec" --shard 1/2 --out "$sweep_tmp/i1.json" > /dev/null
"$helios" campaign run --spec "$ispec" --shard 2/2 --out "$sweep_tmp/i2.json" > /dev/null
"$helios" campaign merge --in "$sweep_tmp/i1.json" --in "$sweep_tmp/i2.json" \
    --out "$sweep_tmp/imerged.json" > /dev/null
cmp "$sweep_tmp/ifull.json" "$sweep_tmp/imerged.json"
echo "infeasible cells are measurements and merge byte-identically"

echo "==> columnar store + query smoke"
# The smoke spec swept into 2 columnar store shards must merge (through
# the mixed-format merge path, in either order or paired with the JSON
# shard) byte-identical to the unsharded JSON report, a shard given
# twice must be refused, and each query below over the store shards must byte-match
# the same query over the compiled JSON report: a GROUP BY scheduler
# summary, a filter through `= null` and a numeric bound, a per-cell
# GROUP BY that makes one group of every row, a string-equality filter
# with a boolean conjunct, and a three-key GROUP BY.
"$helios" campaign run --spec examples/specs/smoke.json --shard 1/2 \
    --store "$sweep_tmp/s1.store" > /dev/null
"$helios" campaign run --spec examples/specs/smoke.json --shard 2/2 \
    --store "$sweep_tmp/s2.store" > /dev/null
"$helios" campaign merge --in "$sweep_tmp/s1.store" --in "$sweep_tmp/s2.store" \
    --out "$sweep_tmp/store_merged.json" > /dev/null
cmp "$sweep_tmp/full.json" "$sweep_tmp/store_merged.json"
# The same shards in reverse order, and as a mixed JSON + store pair.
"$helios" campaign merge --in "$sweep_tmp/s2.store" --in "$sweep_tmp/s1.store" \
    --out "$sweep_tmp/store_merged_rev.json" > /dev/null
cmp "$sweep_tmp/full.json" "$sweep_tmp/store_merged_rev.json"
"$helios" campaign merge --in "$sweep_tmp/s2.store" --in "$sweep_tmp/s1.json" \
    --out "$sweep_tmp/mixed_merged.json" > /dev/null
cmp "$sweep_tmp/full.json" "$sweep_tmp/mixed_merged.json"
# A shard given twice is an overlap: exit 1 with exactly this message.
dup_status=0
"$helios" campaign merge --in "$sweep_tmp/s1.store" --in "$sweep_tmp/s1.store" \
    --in "$sweep_tmp/s2.store" --out "$sweep_tmp/dup_merged.json" \
    > /dev/null 2> "$sweep_tmp/dup.err" || dup_status=$?
if [ "$dup_status" -ne 1 ] || ! printf '%s\n' \
    'helios: campaign error: overlapping shards: cell 0 appears more than once' \
    | cmp -s - "$sweep_tmp/dup.err"; then
    cat "$sweep_tmp/dup.err" >&2
    echo "duplicated store shard: exit $dup_status, expected 1 naming the overlap" >&2
    exit 1
fi
# merge reads what query reads: the complete JSON sweep report is a
# valid merge input (shard 1/1) and merges back to itself.
"$helios" campaign merge --in "$sweep_tmp/full.json" \
    --out "$sweep_tmp/full_remerged.json" > /dev/null
cmp "$sweep_tmp/full.json" "$sweep_tmp/full_remerged.json"
for gq in \
    'SELECT scheduler, count(*), avg_completed(makespan_secs), frac(completed) GROUP BY scheduler' \
    'SELECT cell, makespan_secs WHERE incomplete_reason = null AND makespan_secs > 0' \
    'SELECT cell, count(*) GROUP BY cell' \
    "SELECT cell, makespan_secs WHERE scheduler = 'heft' AND completed = true" \
    'SELECT family, platform, scheduler, count(*), avg_completed(slr) GROUP BY family, platform, scheduler'; do
    "$helios" query "$gq" --in "$sweep_tmp/s1.store" --in "$sweep_tmp/s2.store" \
        --json > "$sweep_tmp/q_store.json"
    "$helios" query "$gq" --in "$sweep_tmp/full.json" --json > "$sweep_tmp/q_json.json"
    cmp "$sweep_tmp/q_store.json" "$sweep_tmp/q_json.json"
done
echo "store merge (either order, or mixed with JSON), sweep-report re-merge and five queries are byte-identical to the JSON path; a duplicated shard is refused"

echo "==> perf-trajectory smoke"
# Reduced-iteration run of the pinned benchmark harness: verifies the
# harness executes and emits well-formed JSON with both series, without
# spending full-run wall clock. Committed BENCH_<PR>.json files must
# come from a full (non-smoke) run; the bench crate's test suite checks
# the committed file carries both series.
target/release/perf_trajectory --smoke --out "$sweep_tmp/bench_smoke.json"
for series in paper_grid_cells_per_sec paper_grid_journal_cells_per_sec \
    merge_rows_per_sec synthetic_dag_steps_per_sec; do
    if ! grep -q "\"$series\"" "$sweep_tmp/bench_smoke.json"; then
        echo "bench smoke output is missing the $series series" >&2
        exit 1
    fi
done
# Numeric sort on the PR number: lexical `ls | tail -1` would pick
# BENCH_9 over BENCH_10.
bench_committed=$(ls BENCH_*.json 2> /dev/null | sort -t_ -k2 -n | tail -1)
if [ -z "$bench_committed" ]; then
    echo "no committed BENCH_*.json trajectory file found" >&2
    exit 1
fi
if grep -q '"smoke": true' "$bench_committed"; then
    echo "$bench_committed was generated with --smoke; commit a full run" >&2
    exit 1
fi
echo "bench harness OK; committed trajectory: $bench_committed"

echo "==> benchmark smoke (every workload, end-to-end and traced)"
# A tiny version of each workload of BENCHMARK.json through the
# benchmark's own correctness checks: every pass's output equals the
# warm-up pass's, journals and store segments read back equal what was
# written, and with --trace 1 the traced replay's report equals the
# driver's. Any failed check exits non-zero. --seconds 0 stops after one
# measured pass.
for workload in paper_grid resilient_exec durable_sweep store_query; do
    for trace in 0 1; do
        if ! cargo run --release --offline -p helios-bench --bin benchmark -- \
            --workload "$workload" --smoke --trace "$trace" --seconds 0 \
            > "$sweep_tmp/benchmark.log" 2>&1; then
            cat "$sweep_tmp/benchmark.log" >&2
            echo "benchmark smoke failed: --workload $workload --trace $trace" >&2
            exit 1
        fi
    done
done
echo "benchmark smoke OK on every workload, --trace 0 and 1"

echo "==> full-size paper_grid digest (release, one pass)"
# One measured pass of the full-size seed-0 paper_grid workload (the
# 1200-cell F3 grid with noise, link contention and caching on, as 35
# shard jobs): the benchmark exits non-zero unless the merged report
# matches the pinned Workload::seed0_digest (af075e88aa084325). This pins
# every planner's placements, annealing's early exits and the batch
# heuristics' row probes included, at the grid's full size; about a
# second in release.
if ! cargo run --release --offline -p helios-bench --bin benchmark -- \
    --workload paper_grid --seed 0 --seconds 0 \
    > "$sweep_tmp/paper_grid.log" 2>&1; then
    cat "$sweep_tmp/paper_grid.log" >&2
    echo "full-size paper_grid failed its seed-0 digest check" >&2
    exit 1
fi
echo "paper_grid seed 0 matches its pinned digest"

echo "==> full-size resilient_exec digest (release, one pass)"
# One measured pass of the full-size seed-0 resilient_exec workload (96
# cells of 2000 tasks, about 4.6M simulated failures): the benchmark
# exits non-zero unless the merged report matches the pinned
# Workload::seed0_digest. This pins the resilient runner's hot path at a
# scale the exec_golden fixtures never reach; about 6 s in release.
if ! cargo run --release --offline -p helios-bench --bin benchmark -- \
    --workload resilient_exec --seed 0 --seconds 0 \
    > "$sweep_tmp/resilient_exec.log" 2>&1; then
    cat "$sweep_tmp/resilient_exec.log" >&2
    echo "full-size resilient_exec failed its seed-0 digest check" >&2
    exit 1
fi
echo "resilient_exec seed 0 matches its pinned digest"

echo "==> full-size store_query digest (release, one pass)"
# One measured pass of the full-size seed-0 store_query workload (50,000
# stored rows written, read, merged and queried 40 times): the benchmark
# exits non-zero unless the pass's output matches the pinned
# Workload::seed0_digest. This pins the query evaluator's values and
# group order at a scale the unit tests never reach; about 6 s in
# release.
if ! cargo run --release --offline -p helios-bench --bin benchmark -- \
    --workload store_query --seed 0 --seconds 0 \
    > "$sweep_tmp/store_query.log" 2>&1; then
    cat "$sweep_tmp/store_query.log" >&2
    echo "full-size store_query failed its seed-0 digest check" >&2
    exit 1
fi
echo "store_query seed 0 matches its pinned digest"

echo "==> full-size durable_sweep digest (release, one pass)"
# One measured pass of the full-size seed-0 durable_sweep workload
# (10,000 cells of 20 tasks through the write-ahead journal, as 50 shard
# jobs in which each (family, seed, platform) group's 4 scheduler cells
# share one cost model): the benchmark exits non-zero unless the merged
# report matches the pinned Workload::seed0_digest (1ba1061d1c5129a4).
# This pins the grid's smallest cells, and the model shared the most,
# at full size; a few seconds in release, most of it fsync.
if ! cargo run --release --offline -p helios-bench --bin benchmark -- \
    --workload durable_sweep --seed 0 --seconds 0 \
    > "$sweep_tmp/durable_sweep.log" 2>&1; then
    cat "$sweep_tmp/durable_sweep.log" >&2
    echo "full-size durable_sweep failed its seed-0 digest check" >&2
    exit 1
fi
echo "durable_sweep seed 0 matches its pinned digest"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (helios crates, warnings denied)"
# A deleted, renamed or private item must not leave a dangling doc link
# behind, and no other rustdoc warning (a redundant explicit link
# target, say) may creep back in. --lib documents only the library
# targets: the root `helios` lib and the helios-cli `helios` binary
# would otherwise collide on one output file name.
RUSTDOCFLAGS="-D warnings" \
    cargo doc --no-deps --lib -p helios -p helios-sim -p helios-platform \
    -p helios-workflow -p helios-sched -p helios-energy -p helios-rt \
    -p helios-core -p helios-cli -p helios-bench

echo "==> CI green"

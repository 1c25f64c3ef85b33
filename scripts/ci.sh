#!/usr/bin/env bash
# Local CI: the full gate a change must pass before merging.
#
#   scripts/ci.sh          # fmt + clippy + release build + tests
#   scripts/ci.sh quick    # skip the release build
#
# Everything runs offline against the vendored toolchain; no network.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> grep guard: no cloned-capacity vec![Vec::with_capacity(..); n]"
# vec![v; n] clones v — every clone of Vec::with_capacity(..) silently
# drops the capacity, so the pattern never does what it looks like.
if grep -rn 'vec!\[Vec::with_capacity' crates/ --include='*.rs'; then
    echo "guard failed: vec![Vec::with_capacity(..); n] clones drop capacity;"
    echo "use (0..n).map(|_| Vec::with_capacity(..)).collect() instead"
    exit 1
fi

echo "==> grep guard: no row-at-a-time batch.row() in the streaming operators or the vectorized evaluator"
# Every operator in crates/exec/src/stream/ consumes batches natively —
# encoded-key arenas, selection vectors and gathers — the joins included:
# the nested loop is the keyless case of the one build-probe join, not a
# row loop. The filter and projection kernels in crates/expr/src/vector.rs
# have no row path either: every expression the binder types has a column
# form. (Checked above each file's #[cfg(test)].)
non_test() { sed '/^#\[cfg(test)\]/,$d' "$1"; }
for f in crates/exec/src/stream/*.rs crates/expr/src/vector.rs; do
    if non_test "$f" | grep -n 'batch\.row('; then
        echo "guard failed: batch.row() in $f;"
        echo "operator and kernel code stays columnar: selection vectors + gather, not batch.row()"
        exit 1
    fi
done
for f in crates/exec/src/stream/*.rs; do
    if non_test "$f" | grep -n 'oracle::'; then
        echo "guard failed: $f imports the oracle's row helpers;"
        echo "residual predicates refine a selection vector (passing), rows are the oracle's"
        exit 1
    fi
done

echo "==> grep guard: the oracle shares no code with the optimizer or the executor"
# crates/exec/src/oracle.rs evaluates the bound query graph as the binder
# returns it, so a wrong rewrite, order claim or operator cannot give the
# same wrong rows on both sides of a comparison: it never sees a plan,
# runs no rewrite or order scan, and calls none of the executor's kernels.
# (Checked above the file's #[cfg(test)].)
if non_test crates/exec/src/oracle.rs \
    | grep -n 'fto_planner\|Plan\|crate::stream\|sortkernel\|aggkernel\|extsort\|sortkey\|rewrite::\|OrderScan'; then
    echo "guard failed: crates/exec/src/oracle.rs uses the optimizer or the executor;"
    echo "the oracle evaluates the bound query graph row at a time, on its own"
    exit 1
fi

echo "==> grep guard: one order enforcer, and it never materializes a row"
# Sort, segmented sort and top-n are one operator over one permutation
# kernel, and the gather hands column batches around: no Vec<Row>, no
# row<->column transposition in the exchange layer, the external sort or
# the kernel. (Checked above each file's #[cfg(test)].)
for f in parallel extsort sortkernel; do
    if non_test "crates/exec/src/$f.rs" | grep -n 'Vec<Row>\|from_rows(\|append_rows_to('; then
        echo "guard failed: crates/exec/src/$f.rs materializes rows;"
        echo "hold column batches and gather once per output batch (sortkernel::gather_rows)"
        exit 1
    fi
done
operators=$(cat crates/exec/src/stream/*.rs crates/exec/src/parallel.rs | grep -c '^impl Operator for' || true)
if [[ "${operators}" -gt 12 ]]; then
    echo "guard failed: ${operators} Operator impls in stream/ + parallel.rs (allowed: 12);"
    echo "a new enforcer, build-probe join or grouping is a parameter of EnforceOp / JoinOp / GroupByOp, and the one exchange is GatherOp, not a new operator"
    exit 1
fi
# The exchange layer gathers and nothing else: the enforcer above a gather
# is the serial one, and an execution with a budget lowers no gather, so
# no sort, run merge, dealing or budget arithmetic belongs in parallel.rs.
if non_test crates/exec/src/parallel.rs | grep -n 'memory_budget\|SortBuf\|merge_runs\|RoundRobin'; then
    echo "guard failed: crates/exec/src/parallel.rs sorts, merges, deals or budgets again;"
    echo "a parallel enforcer is worker-run EnforceOps under the concat gather, and a budget runs serial"
    exit 1
fi

echo "==> grep guard: the plan names what the executor runs"
# One PlanNode variant per operator the executor has: the enforcer is
# Sort { prefix_len, limit }, the build-probe join — the merge join is the
# one whose inputs satisfy every equated pair — is
# Join { kind, keys, prefix_len }, grouping is GroupBy { prefix_len } and
# DISTINCT is that grouping with no aggregates. Every consumer of a plan
# (lowering, EXPLAIN, a validator) pays per variant, so the count only
# goes down. The query-level oracle consumes no plan: it joins and groups
# the bound query by definition.
variants=$(sed -n '/^pub enum PlanNode/,/^}/p' crates/planner/src/plan.rs | grep -c '^    [A-Z][A-Za-z]* {' || true)
if [[ "${variants}" -gt 10 ]]; then
    echo "guard failed: ${variants} PlanNode variants (allowed: 10);"
    echo "a new enforcer, build–probe join or grouping is a field value of \`Sort\`/\`Join\`/\`GroupBy\`, not a new variant"
    exit 1
fi
if grep -rnE 'StreamDistinct|HashDistinct|SegmentedSort \{|TopN \{|HashJoin \{|NestedLoopJoin \{|LeftOuterJoin \{|MergeJoin \{|MergeJoinOp|MergeSide|plan_distinct|GroupMethod|StreamGroupByOp|HashGroupByOp' crates/ --include='*.rs' \
    | grep -v 'IndexNestedLoopJoin {'; then
    echo "guard failed: a folded plan node or operator, a DISTINCT operator or plan_distinct is back under crates/;"
    echo "a new enforcer, build–probe join or grouping is a field value of \`Sort\`/\`Join\`/\`GroupBy\`, not a new variant"
    exit 1
fi
if grep -rnE 'fn (merge_join|stream_group_by)\(' crates/exec/src --include='*.rs'; then
    echo "guard failed: a second, order-trusting merge join or stream group-by is back in crates/exec/src;"
    echo "the one join is JoinOp, the one grouping GroupByOp, and the oracle joins and groups by definition"
    exit 1
fi

echo "==> grep guard: one execution record, no process-wide, thread-local or shared-and-locked tally in the executor"
# Everything an execution records — the counters a query reports (pages,
# sort work, spilled runs, segment groups), the per-node slots, the
# timeline's lanes — is a field of the ExecRecord that
# Operator::{open, next_batch, close} thread; exchange workers fill a
# private one the coordinator absorbs in partition order. A static or
# thread-local tally that sessions snapshot around an execution counts
# every concurrent session's work as this one's, and anything the
# operators share has to be locked on every call. (Checked above each
# file's #[cfg(test)].)
for f in crates/exec/src/*.rs crates/exec/src/stream/*.rs crates/obs/src/profile.rs; do
    if non_test "$f" | grep -n 'static .*Atomic\|thread_local!\|_snapshot()'; then
        echo "guard failed: $f: observations ride the ExecRecord; a process-wide tally is wrong under two sessions"
        exit 1
    fi
done
for f in crates/exec/src/stream/*.rs crates/exec/src/parallel.rs; do
    if non_test "$f" | grep -n 'Mutex\|RefCell\|Atomic'; then
        echo "guard failed: $f: operators share nothing mutable; slots and lanes are fields of the record they thread"
        exit 1
    fi
done

echo "==> grep guard: one page model, no page cache"
# Every heap and index page touch is charged by PageCursor's same/next/other
# rule at every memory budget, as the planner prices it: a budget bounds
# what pipeline breakers hold and changes only spill traffic
# (tests/spill.rs::a_budget_changes_only_spill_traffic). A buffer pool made
# a budgeted run cheaper in pages than the unbudgeted run of the same plan.
if grep -rn 'BufferPool' crates/; then
    echo "guard failed: a BufferPool is back under crates/;"
    echo "pages are charged by PageCursor alone, and a budget changes only what spills"
    exit 1
fi

echo "==> grep guard: one index representation, probed with typed columns"
# An OrderedIndex is one typed key column per key part plus a rid vector,
# and every reader — the index nested-loop join, the scan cursors —
# reads those: no per-entry Vec<Value> key, no probe that
# takes Values, and the join builds no Value per probe (it hands the outer
# batch's key columns and a row index to OrderedIndex::probe). (Checked
# above each file's #[cfg(test)].)
if non_test crates/storage/src/index.rs | grep -n 'Vec<(Vec<Value>\|&\[Value\]'; then
    echo "guard failed: crates/storage/src/index.rs holds Value keys or probes with Values again;"
    echo "store key columns plus rids, and probe with &[&Column] and a row index"
    exit 1
fi
inlj_next_batch=$(non_test crates/exec/src/stream/join.rs \
    | sed -n '/^impl Operator for IndexNestedLoopJoinOp/,/^}/p' \
    | sed -n '/fn next_batch(/,/^    }$/p')
if [[ -z "${inlj_next_batch}" ]]; then
    echo "guard failed: IndexNestedLoopJoinOp::next_batch not found in crates/exec/src/stream/join.rs"
    exit 1
fi
if grep -n '\.value(' <<<"${inlj_next_batch}"; then
    echo "guard failed: IndexNestedLoopJoinOp::next_batch materializes Values;"
    echo "probe with the outer batch's typed key columns"
    exit 1
fi

echo "==> grep guard: a column's type is declared, not inferred"
# Every column is built as the type its schema or its bound query declares
# (Column::from_typed_values, via the catalog's ColumnDef::data_type or the
# registry type the binder minted): there is no dynamically typed column
# variant, no value-level spill serde behind one, and no constructor that
# looks at values to pick a representation.
if grep -rn 'ColumnData::Mixed\|COL_MIXED\|write_value(\|read_value(' crates/ --include='*.rs'; then
    echo "guard failed: a Mixed column (or its value-level spill serde) is back;"
    echo "declare the column's type and build it with Column::from_typed_values"
    exit 1
fi
for crate in exec expr storage catalog; do
    while IFS= read -r f; do
        if non_test "$f" | grep -n 'from_values(\|from_rows(\|from_rows_arity('; then
            echo "guard failed: $f calls an inferring column constructor;"
            echo "look the declared type up (stream::layout_types, HeapTable::types) and build that"
            exit 1
        fi
    done < <(find "crates/${crate}/src" -name '*.rs')
done

echo "==> count guard: non-test unwrap/expect/panic!/unreachable! sites per engine crate"
# ROADMAP item 2: hostile input must produce typed errors, so the panic
# sites left in engine code are documented internal invariants and their
# number only goes down. Lower a ceiling when a PR removes sites.
for entry in exec:3 obs:8 planner:0 common:5 sql:0 storage:0 expr:1 catalog:0 core:0 qgm:0; do
    crate="${entry%%:*}" ceiling="${entry##*:}" sites=0
    while IFS= read -r f; do
        n=$(non_test "$f" | grep -c '\.unwrap()\|\.expect(\|panic!(\|unreachable!(' || true)
        sites=$((sites + n))
    done < <(find "crates/${crate}/src" -name '*.rs')
    if [[ "${sites}" -gt "${ceiling}" ]]; then
        echo "guard failed: crates/${crate}/src has ${sites} non-test unwrap/expect/panic!/unreachable! sites (ceiling ${ceiling});"
        echo "return a typed error, or state the invariant and raise the ceiling in the same PR"
        exit 1
    fi
done

echo "==> grep guard: the planner writes each rule once"
# Every box is planned by one pipeline (Planner::plan_box): one input
# planner per quantifier hands a base table's id to access_paths, and one
# generator makes (and counts) every sort-ahead variant — a second copy of
# either drifts, as the two sort-ahead copies' counting did before PR 25.
# (Checked above each file's #[cfg(test)].)
planner_src() { for f in crates/planner/src/*.rs; do non_test "$f"; done; }
calls=$(planner_src | grep 'access_paths(' | grep -vc 'fn access_paths(' || true)
if [[ "${calls}" -ne 1 ]]; then
    echo "guard failed: ${calls} non-test calls of access_paths( under crates/planner/src (allowed: 1);"
    echo "plan a quantifier with Planner::plan_input"
    exit 1
fi
makers=$(planner_src | grep -c 'TraceEvent::SortAhead' || true)
if [[ "${makers}" -ne 1 ]]; then
    echo "guard failed: ${makers} places make sort-ahead variants under crates/planner/src (allowed: 1);"
    echo "call Planner::sort_ahead"
    exit 1
fi
# The order enforcer is priced in one place: enforcer_cost, which
# Planner::enforcer builds every Sort with and sort-ahead prices each
# candidate's sort with before building only the cheapest. A second copy
# of the arithmetic would let a priced sort and the built one drift apart.
enforcer_cost=$(non_test crates/planner/src/planner.rs | sed -n '/^fn enforcer_cost(/,/^}/p')
if [[ -z "${enforcer_cost}" ]]; then
    echo "guard failed: fn enforcer_cost not found in crates/planner/src/planner.rs"
    exit 1
fi
for f in crates/planner/src/*.rs; do
    if non_test "$f" | sed '/^fn enforcer_cost(/,/^}/d' | grep -n 'cost::sort(\|cost::segmented_sort('; then
        echo "guard failed: $f prices a sort outside enforcer_cost;"
        echo "price the enforcer with enforcer_cost (SortShape::price), not a copy of its arithmetic"
        exit 1
    fi
done
# Plans are compared by one rule, Planner::plan_dominates, which counts an
# order only up to the prefix some operator of the query could use. A
# second caller of StreamProps::dominates_under would compare whole orders
# again, or cut them another way, and the two would prune differently.
callers=$(planner_src | sed '/fn plan_dominates(/,/^    }$/d' | grep -c 'dominates_under(' || true)
if [[ "${callers}" -ne 0 ]]; then
    echo "guard failed: ${callers} non-test calls of dominates_under( under crates/planner/src outside fn plan_dominates;"
    echo "compare plans with Planner::plan_dominates"
    exit 1
fi
# The reference planner (Planner::exhaustive) builds a sorted copy of every
# candidate and keeps every plan whose properties differ: a yardstick for
# the tests, never a way to plan a query.
if grep -rn --include='*.rs' 'exhaustive(' crates examples benchmark/src | grep -v '^crates/planner/'; then
    echo "guard failed: the reference planner is asked for outside crates/planner and tests/;"
    echo "Planner::exhaustive is for tests/reference_planner.rs"
    exit 1
fi
# A candidate plan is an Arc shared by every plan built over it: a parent
# takes Arc::clone of its child, and pruning a candidate frees its own node
# alone. A deep copy into a parent is a subtree allocated per join method
# per pair, and freed again when the pair is pruned.
if planner_src | grep -nE 'Arc::new\([a-z_][a-z0-9_]*\.clone\(\)\)|(add_sort|ensure_order)\([a-z_][a-z0-9_]*\.clone\(\)'; then
    echo "guard failed: a plan is deep-copied into a parent under crates/planner/src;"
    echo "candidates are Arc<Plan>: pass Arc::clone(&plan)"
    exit 1
fi

echo "==> count guard: OptimizerConfig has at most 9 knobs"
# Every knob doubles a test matrix, and a knob that only removes plans
# is a cap, not a choice: sort-ahead serves every interesting order (the
# paper's O(n^2) in n stays flat here), and segmented sorts follow
# order_optimization like the rest of the order algebra. The count only
# goes down.
knobs=$(sed -n '/^pub struct OptimizerConfig {/,/^}/p' crates/planner/src/config.rs | grep -c '^    pub [a-z_]*:' || true)
if [[ "${knobs}" -gt 9 ]]; then
    echo "guard failed: OptimizerConfig has ${knobs} fields (allowed: 9);"
    echo "derive the behaviour from an existing knob, or remove one in the same PR"
    exit 1
fi
if grep -rnE 'max_sort_ahead|enable_segmented_sort|with_segmented_sort' crates tests examples --include='*.rs'; then
    echo "guard failed: a sort-ahead cap or a segmented-sort switch is back;"
    echo "sort-ahead considers every interest, and order_optimization gates segmented sorts"
    exit 1
fi

echo "==> count guard: StreamProps has at most 3 public properties, and keys are dependencies"
# A key enters the order algebra as the dependency key -> all columns,
# and a key bound to constants empties any order through reduce: the
# paper's one-record condition. A separate key property decided nothing
# and cost one closure loop per key on every applied predicate. The
# properties are cols, order and preds, over the shared facts; the count
# only goes down.
props=$(sed -n '/^pub struct StreamProps {/,/^}/p' crates/core/src/props.rs | grep -c '^    pub [a-z_]*:' || true)
if [[ "${props}" -gt 3 ]]; then
    echo "guard failed: StreamProps has ${props} public fields (allowed: 3);"
    echo "state the new fact as a dependency in StreamFacts instead"
    exit 1
fi
if grep -rnE 'KeyProperty|keyprop' crates tests examples; then
    echo "guard failed: a key property is back;"
    echo "keys are FdSet::add_key dependencies, read through OrderContext::reduce"
    exit 1
fi

echo "==> grep guard: one optimizer log, owned by the planner that fills it"
# A planner decision is recorded by one call that bumps its PlannerStats
# field and, when the planner was asked to trace, pushes the event into
# the log it holds. No collector is installed on a thread and no second
# tally shadows the counters; the order algebra's calls are counted in
# fto-order's own ContextWork, so that crate needs nothing from fto-obs.
# (Checked above each file's #[cfg(test)].)
for f in crates/obs/src/trace.rs crates/planner/src/*.rs; do
    if non_test "$f" | grep -n 'static .*Atomic\|thread_local!'; then
        echo "guard failed: $f: the decision log and its counters are fields of the Planner"
        exit 1
    fi
done
if grep -n 'fto-obs' crates/core/Cargo.toml; then
    echo "guard failed: fto-order depends on fto-obs again;"
    echo "order-algebra calls are counted (ContextWork), not logged"
    exit 1
fi

echo "==> grep guard: one accumulate implementation per engine, no std hash maps in the streaming operators"
# The streaming executor aggregates through crates/exec/src/aggkernel.rs
# (group ids + columnar state); fto_expr::agg::Accumulator belongs to the
# query-level oracle. Every encoded key in stream/ — group-by
# (DISTINCT is one) and the join build alike — lives in the kernel's
# GroupTable.
if grep -n 'update_value(\|\.accumulator()' crates/exec/src/*.rs crates/exec/src/stream/*.rs | grep -v '^crates/exec/src/oracle\.rs:'; then
    echo "guard failed: Accumulator used outside crates/exec/src/oracle.rs;"
    echo "streaming operators aggregate through aggkernel::GroupAgg"
    exit 1
fi
for f in crates/exec/src/stream/*.rs; do
    if non_test "$f" | grep -n 'HashMap\|HashSet'; then
        echo "guard failed: a std HashMap/HashSet in $f;"
        echo "key encoded bytes through aggkernel::GroupTable"
        exit 1
    fi
done

echo "==> grep guard: one key arena, one prefix reader"
# A batch's encoded keys are a sortkernel::KeyArena wherever the executor
# holds them — the sort kernel's buffers, the group table's keys, the
# grouping's and the join's per-batch scratch — and KeyArena::encode is
# the one caller of the batch key encoder. The satisfied prefix of the
# enforcer, the grouping and the merge join is read by one
# stream::prefix::PrefixReader, the only holder of a carried prefix (its
# `lead`): a second copy of the encode/compare/carry rule drifts from the
# first. (Checked above each file's #[cfg(test)].)
for f in crates/exec/src/*.rs crates/exec/src/stream/*.rs; do
    [[ "$f" == crates/exec/src/sortkernel.rs ]] && continue
    if non_test "$f" | grep -n 'encode_batch_keys_arena('; then
        echo "guard failed: $f encodes a batch's keys outside KeyArena::encode;"
        echo "hold them in a sortkernel::KeyArena"
        exit 1
    fi
done
for f in crates/exec/src/stream/*.rs; do
    [[ "$f" == crates/exec/src/stream/prefix.rs ]] && continue
    if non_test "$f" | grep -nE '^\s*(pub(\([a-z]+\))? )?lead:'; then
        echo "guard failed: $f carries its own prefix across batches;"
        echo "cut runs with stream::prefix::PrefixReader"
        exit 1
    fi
done

echo "==> grep guard: one walk for generalized orders"
# FlexOrder::concretize is the one walk of a generalized order against a
# stream's order property, and satisfied_by is the paper's Test Order over
# the order it reads off: a second walk drifts from the first (the two
# once disagreed on a key that an FD determines coming before a pinned
# column). (Checked above the file's #[cfg(test)].)
f=crates/core/src/freedom.rs
if [[ $(non_test "$f" | grep -c 'prop\.keys()') -ne 1 ]]; then
    echo "guard failed: $f reads the order property's keys in more than one place;"
    echo "walk a generalized order only in FlexOrder::concretize"
    exit 1
fi
if ! non_test "$f" | grep -A2 'pub fn satisfied_by' | grep -q 'ctx\.test_order(&self\.concretize(prop, ctx), prop)'; then
    echo "guard failed: FlexOrder::satisfied_by in $f is not Test Order over concretize"
    exit 1
fi

echo "==> grep guard: the heap is read as columns; only the oracle materializes its rows"
# The scan cursors hand out the heap's column chunks (whole, sliced or
# gathered); transposing rows back into columns per pull is the cost the
# columnar heap removed. HeapTable::row()/to_rows() exist for the
# query-level oracle (and tests), not for streaming operators.
if grep -n 'push_row' crates/storage/src/scan.rs; then
    echo "guard failed: crates/storage/src/scan.rs builds batches row by row again;"
    echo "use HeapTable::columns / HeapTable::gather_columns"
    exit 1
fi
if grep -n 'heap\.row(\|to_rows(' crates/exec/src/*.rs crates/exec/src/stream/*.rs | grep -v '^crates/exec/src/oracle\.rs:'; then
    echo "guard failed: heap.row()/to_rows() outside crates/exec/src/oracle.rs;"
    echo "streaming operators read HeapTable::columns / HeapTable::gather_columns"
    exit 1
fi
# One heap read path, and it names the columns it reads: an all-column
# gather is what carried every stored column through the filter and the
# index nested-loop join whatever their consumers read.
if non_test crates/storage/src/heap.rs | grep -n 'pub fn gather('; then
    echo "guard failed: crates/storage/src/heap.rs has an all-column gather again;"
    echo "read the columns a consumer needs with HeapTable::gather_columns"
    exit 1
fi

echo "==> grep guard: lowering resolves positions against the layouts its children return"
# Lowering hands each operator's parent the layout the operator emits —
# plan.layout restricted to the columns its consumer reads — and the
# parent resolves its keys, predicates and expressions against that. A
# position resolved against a child plan's layout points into columns the
# child no longer carries, so non-test stream/lower.rs reads no layout but
# the node's own (`plan.layout`). One exception, `branch_cols`: a union
# matches its inputs by position, so it reads an input plan's column ids
# (`branch.layout`) and checks them against what the input's lowering
# returned.
if non_test crates/exec/src/stream/lower.rs \
    | sed -E 's/\bplan\.layout\b//g; s/let cols = branch\.layout\.cols\(\);//' \
    | grep -nE '\.layout\b'; then
    echo "guard failed: crates/exec/src/stream/lower.rs reads a child plan's layout;"
    echo "resolve positions against the layout lower_impl / lower_input returned"
    exit 1
fi
if [ "$(non_test crates/exec/src/stream/lower.rs | grep -c 'branch\.layout')" -ne 1 ]; then
    echo "guard failed: crates/exec/src/stream/lower.rs reads branch.layout outside branch_cols"
    exit 1
fi

echo "==> grep guard: a filter passes its selection up; one function applies a selection"
# A filter attaches the rows it keeps to its input's columns as a
# selection instead of gathering them; the projection passes it through
# and the grouping works over it. Every other consumer reads rows by
# position and densifies its input through stream::dense, the one place a
# selection is applied. So non-test stream/pipeline.rs gathers nothing,
# and a batch's selection is read in three places only: dense, the
# filter's refinement (stream::passing) and the grouping's fold
# (GroupAgg::absorb). (Checked above each file's #[cfg(test)].)
if non_test crates/exec/src/stream/pipeline.rs | grep -n '\.gather('; then
    echo "guard failed: crates/exec/src/stream/pipeline.rs gathers rows;"
    echo "a filter attaches its selection (Batch::with_selection); consumers densify through stream::dense"
    exit 1
fi
readers=$(for f in crates/exec/src/*.rs crates/exec/src/stream/*.rs; do non_test "$f"; done | grep -c '\.selection()' || true)
if [[ "${readers}" -ne 3 ]]; then
    echo "guard failed: ${readers} non-test reads of a batch's selection in crates/exec/src (allowed: 3);"
    echo "densify through stream::dense, or work over the selection in the grouping"
    exit 1
fi
if ! non_test crates/exec/src/stream/mod.rs | grep -A4 '^pub(crate) fn dense(' | grep -q 'batch\.gather(sel)'; then
    echo "guard failed: stream::dense no longer applies the selection"
    exit 1
fi

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" != "quick" ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

echo "==> sort-key codec property tests (encoded order == Value order)"
cargo test -q -p fto-common --lib sortkey

echo "==> columnar batch property tests (row round-trip, key encoders)"
cargo test -q -p fto-common --test prop_column

echo "==> cargo test -q (the engine differential, bounded-memory and segmented-sort matrices included)"
cargo test -q

echo "==> FTO_TEST_THREADS=4 cargo test -q --test differential --test parallel"
FTO_TEST_THREADS=4 cargo test -q -p fto-bench --test differential --test parallel

echo "==> benchmark/: builds against the engine's public surface, allowed-API list holds"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark/: quick smoke of every workload and path, answers checked (not comparable numbers)"
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- run --quick

if [[ "${1:-}" != "quick" ]]; then
    echo "==> cost-model calibration report (scale 0.005)"
    cargo run -q -p fto-bench --release --bin calibrate -- 0.005

    echo "==> smoke: EXPLAIN ANALYZE + EXPLAIN OPTIMIZER + \\metrics through the REPL"
    q3="select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as rev, o_orderdate, o_shippriority from customer, orders, lineitem where o_orderkey = l_orderkey and c_custkey = o_custkey and c_mktsegment = 'building' and o_orderdate < date('1995-03-15') and l_shipdate > date('1995-03-15') group by l_orderkey, o_orderdate, o_shippriority order by rev desc, o_orderdate"
    smoke_out=$(printf '%s\n' \
        "explain analyze ${q3};" \
        "explain optimizer ${q3};" \
        '\metrics' \
        ".quit" \
        | cargo run -q -p fto-bench --release --bin repl -- 0.005)
    echo "$smoke_out"
    if ! grep -q "actual: rows=" <<<"$smoke_out"; then
        echo "smoke failed: no actuals in EXPLAIN ANALYZE output"
        exit 1
    fi
    if ! grep -Eq "q-err=[0-9]+\.[0-9]+" <<<"$smoke_out"; then
        echo "smoke failed: no q-err column in EXPLAIN ANALYZE output"
        exit 1
    fi
    if ! grep -Eq "histogram query.qerror .*count=[1-9]" <<<"$smoke_out"; then
        echo "smoke failed: \\metrics query.qerror histogram not populated"
        exit 1
    fi
    if ! grep -q "sort-ahead" <<<"$smoke_out"; then
        echo "smoke failed: no sort-ahead variants in EXPLAIN OPTIMIZER output"
        exit 1
    fi
    if grep -q "events dropped" <<<"$smoke_out"; then
        echo "smoke failed: Q3's decision log overflowed its ring (order-op calls logged again?)"
        exit 1
    fi
    if ! grep -q "counter session.queries" <<<"$smoke_out"; then
        echo "smoke failed: \\metrics did not expose the session counters"
        exit 1
    fi
    if ! grep -Eq "counter sort.key_bytes [1-9]" <<<"$smoke_out"; then
        echo "smoke failed: \\metrics sort.key_bytes not populated (sorts not encoding keys?)"
        exit 1
    fi
    if ! grep -Eq "counter sort.comparisons [1-9]" <<<"$smoke_out"; then
        echo "smoke failed: \\metrics sort.comparisons not populated"
        exit 1
    fi

    echo "==> smoke: FTO_MEMORY_BUDGET forces spilling — at FTO_THREADS=2 too, a budget runs serial — surfaced in \\metrics"
    budget_out=$(printf '%s\n' \
        "${q3};" \
        '\metrics' \
        ".quit" \
        | FTO_MEMORY_BUDGET=4096 FTO_THREADS=2 cargo run -q -p fto-bench --release --bin repl -- 0.005)
    if ! grep -Eq "counter spill.pages_written [1-9]" <<<"$budget_out"; then
        echo "smoke failed: 4 KiB budget produced no spill.pages_written in \\metrics"
        exit 1
    fi
    if ! grep -Eq "counter spill.runs_formed [1-9]" <<<"$budget_out"; then
        echo "smoke failed: 4 KiB budget produced no spill.runs_formed in \\metrics"
        exit 1
    fi
    grep -E "counter spill\." <<<"$budget_out"
    # A budget changes only spill traffic: the budgeted q3 touches exactly
    # the heap and index pages an unbudgeted serial run of it touches.
    unbounded_out=$(printf '%s\n' \
        "${q3};" \
        '\metrics' \
        ".quit" \
        | FTO_THREADS=1 cargo run -q -p fto-bench --release --bin repl -- 0.005)
    page_counters() { grep -E "^counter session\.io\.(sequential|random|index)_pages " <<<"$1"; }
    if [[ "$(page_counters "$budget_out" | wc -l)" -ne 3 ]] \
        || [[ "$(page_counters "$budget_out")" != "$(page_counters "$unbounded_out")" ]]; then
        echo "smoke failed: the 4 KiB budget changed q3's page counts (a budget changes only spill traffic):"
        printf 'budgeted:\n%s\nunbounded:\n%s\n' "$(page_counters "$budget_out")" "$(page_counters "$unbounded_out")"
        exit 1
    fi
    page_counters "$budget_out"
    # A spilled join build is decoded once per group a probe chunk touches,
    # and a sort reads each run once per merge pass: a file read many times
    # over means the probe decodes a group per hop again (27x before PR 24).
    spill_read=$(sed -n 's/^counter spill\.pages_read //p' <<<"$budget_out")
    spill_written=$(sed -n 's/^counter spill\.pages_written //p' <<<"$budget_out")
    echo "spill pages read / written: ${spill_read} / ${spill_written} = $(awk "BEGIN { printf \"%.1f\", ${spill_read} / ${spill_written} }")x"
    if [[ "${spill_read}" -gt $((4 * spill_written)) ]]; then
        echo "smoke failed: spill.pages_read is more than 4x spill.pages_written"
        exit 1
    fi

    echo "==> smoke: segmented sort chosen, visible in EXPLAIN OPTIMIZER + ANALYZE"
    # Clustered lineitem index (l_orderkey, l_linenumber) delivers the
    # prefix; the planner must pick the partial sort and the executor
    # must report the groups it formed — serially and at FTO_THREADS=2
    # alike: a segmented sort streams, so it never sits on a gather.
    segq="select l_orderkey, l_shipdate, l_extendedprice from lineitem order by l_orderkey, l_shipdate"
    for threads in 1 2; do
        seg_out=$(printf '%s\n' \
            "explain optimizer ${segq};" \
            "explain analyze ${segq};" \
            ".quit" \
            | FTO_THREADS=$threads cargo run -q -p fto-bench --release --bin repl -- 0.005)
        if ! grep -q "PartialSortChosen" <<<"$seg_out"; then
            echo "smoke failed: EXPLAIN OPTIMIZER did not record PartialSortChosen (FTO_THREADS=$threads)"
            exit 1
        fi
        if ! grep -Eq "segmented: groups=[1-9]" <<<"$seg_out"; then
            echo "smoke failed: EXPLAIN ANALYZE shows no segmented groups formed (FTO_THREADS=$threads)"
            exit 1
        fi
        grep -E "PartialSortChosen|segmented: groups=" <<<"$seg_out" | head -4
    done

    echo "==> smoke: \\profile emits a valid Chrome trace, tracecheck-verified"
    trace_out="$(mktemp -t fto_profile_XXXXXX.json)"
    profile_out=$(printf '%s\n' \
        "\\profile ${trace_out}" \
        "${q3};" \
        ".quit" \
        | FTO_THREADS=4 cargo run -q -p fto-bench --release --bin repl -- 0.005)
    if ! grep -Eq "profile: [1-9][0-9]* events in [1-9][0-9]* lanes" <<<"$profile_out"; then
        echo "smoke failed: \\profile reported no captured events"
        exit 1
    fi
    cargo run -q -p fto-bench --release --bin tracecheck -- "$trace_out"
    if ! grep -q '"ph":"M"' "$trace_out"; then
        echo "smoke failed: trace has no thread_name metadata (per-worker lanes missing)"
        exit 1
    fi
    if [[ ! -s "${trace_out}.folded" ]]; then
        echo "smoke failed: no folded stacks written next to the Chrome trace"
        exit 1
    fi
    rm -f "$trace_out" "${trace_out}.folded"

    echo "==> smoke: columnar engine output identical across operator inventories"
    colq="select o_shippriority, count(*) as cnt from orders group by o_shippriority order by o_shippriority"
    rows_modern=$(printf '%s\n' "${colq};" ".quit" \
        | cargo run -q -p fto-bench --release --bin repl -- 0.005 2>/dev/null \
        | grep -E '^[0-9]+ \|')
    rows_1996=$(printf '%s\n' ".mode 1996" "${colq};" ".quit" \
        | cargo run -q -p fto-bench --release --bin repl -- 0.005 2>/dev/null \
        | grep -E '^[0-9]+ \|')
    if [[ -z "$rows_modern" ]]; then
        echo "smoke failed: columnar group-by query produced no rows"
        exit 1
    fi
    if [[ "$rows_modern" != "$rows_1996" ]]; then
        echo "smoke failed: hash (columnar byte-keyed) and order-based group-by disagree:"
        printf 'modern:\n%s\n1996:\n%s\n' "$rows_modern" "$rows_1996"
        exit 1
    fi
    echo "$rows_modern"
fi

echo "CI green."

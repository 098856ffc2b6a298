#!/usr/bin/env python3
"""Gate the engine-shootout JSON against verdict regressions.

Usage: check_shootout.py <shootout.json> [<baseline.json>]

The shootout (bench_engine_shootout --json) records one object per
(design, engine) cell. This checker fails CI when any cell's verdict
regresses from the expectations pinned below — soundness bugs and lost
proofs show up here before anything else. Wall-clock numbers are reported
but never gate the build: CI machines are too noisy for timing assertions.

With a second argument — a committed trajectory snapshot such as
BENCH_PR27.json (see docs/benchmarks.md) — every (design, engine) cell
present in both files must additionally agree on its verdict, so a fresh
run can never silently drift from the checked-in trajectory. Every cell
must also agree exactly on the deterministic work counters
(DETERMINISTIC_COUNTERS): every engine, the portfolio included, runs on one
thread and replays the same search on every machine, so any drift there
means the search itself changed.
"""

import json
import sys

# Work counters that every cell reproduces exactly from run to run and
# machine to machine; gated against the baseline. The
# CNF size (variables and problem clauses of the cell's solvers at finish)
# catches encoding changes that happen to leave the search counts alone.
DETERMINISTIC_COUNTERS = ("sat_calls", "conflicts", "propagations", "depth",
                          "cnf_vars", "cnf_clauses")

# verdict expected from every engine that can conclude on the design at the
# shootout's step budget (max_steps = 12). "unknown" rows are design/engine
# pairs that legitimately cannot conclude at this bound (BMC on a true
# property, k-induction without lemmas, PDR beyond its frame budget).
EXPECTED_VERDICTS = {
    # design: {engine-label-prefix: verdict}
    # The "pdr-cache" rows come from the proof-cache experiment (E9), which
    # runs PDR at whatever per-design budget closes the proof — so a design
    # can be "unknown" for the main-matrix "pdr" prefix (budget 12) and
    # "proven" for its cache rows at the same time. The prefix match is
    # label-word based ("pdr-cache warm" does not match "pdr " + suffix), so
    # the two expectations never collide.
    "sync_counters": {"bmc": "unknown", "k-induction": "unknown", "pdr": "unknown",
                      "portfolio": "unknown"},
    "sequencer": {"bmc": "unknown", "k-induction": "unknown", "pdr": "proven",
                  "portfolio": "proven", "pdr-cache": "proven"},
    "token_ring": {"bmc": "unknown", "k-induction": "unknown", "pdr": "proven",
                   "portfolio": "proven", "pdr-cache": "proven"},
    "updown_pair": {"bmc": "unknown", "k-induction": "unknown", "pdr": "proven",
                    "portfolio": "proven", "pdr-cache": "proven"},
    "lfsr16": {"bmc": "unknown", "k-induction": "proven", "pdr": "unknown",
               "portfolio": "proven", "pdr-cache": "proven"},
    "gray_counter": {"bmc": "unknown", "k-induction": "unknown", "pdr": "unknown",
                     "portfolio": "unknown", "pdr-cache": "proven"},
    "fifo_ctrl": {"bmc": "unknown", "k-induction": "unknown", "pdr": "unknown",
                  "portfolio": "unknown", "pdr-cache": "proven"},
    # dual_accumulator (runs at a step budget of 6, see the bench): the
    # output-equality target is not k-inductive without the stage-1 lemma,
    # but PDR mines the equality clauses itself.
    "dual_accumulator": {"bmc": "unknown", "k-induction": "unknown",
                         "pdr": "proven", "portfolio": "proven",
                         "pdr-cache": "proven"},
    # --- tests/corpus rows (bench_engine_shootout --dir tests/corpus) ------
    # Files parsed through the AIGER/BTOR2 frontends; the *_rt rows are zoo
    # designs round-tripped through the AIGER writer, and must keep the same
    # verdict profile as their word-level originals.
    "counter_wrap": {"bmc": "unknown", "k-induction": "proven", "pdr": "proven",
                     "portfolio": "proven"},
    "rotate_onehot": {"bmc": "unknown", "k-induction": "proven", "pdr": "proven",
                      "portfolio": "proven"},
    # rol/ror and sdiv/srem/smod corpus designs (PR8): both carry 1-inductive
    # properties, so every proving engine concludes and BMC cannot.
    "rot_barrel": {"bmc": "unknown", "k-induction": "proven", "pdr": "proven",
                   "portfolio": "proven"},
    "sdiv_props": {"bmc": "unknown", "k-induction": "proven", "pdr": "proven",
                   "portfolio": "proven"},
    "toggle_bad": {"bmc": "falsified", "k-induction": "falsified",
                   "pdr": "falsified", "portfolio": "falsified"},
    "toggle_cex": {"bmc": "falsified", "k-induction": "falsified",
                   "pdr": "falsified", "portfolio": "falsified"},
    "lfsr16_rt": {"bmc": "unknown", "k-induction": "proven", "pdr": "unknown",
                  "portfolio": "proven"},
    "token_ring_rt": {"bmc": "unknown", "k-induction": "unknown", "pdr": "proven",
                      "portfolio": "proven"},
    "updown_pair_rt": {"bmc": "unknown", "k-induction": "unknown", "pdr": "proven",
                       "portfolio": "proven"},
}


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as f:
        records = json.load(f)
    if not records:
        print("error: empty shootout JSON", file=sys.stderr)
        return 1

    failures = []
    for record in records:
        design, engine = record["design"], record["engine"]
        expectations = EXPECTED_VERDICTS.get(design, {})
        for prefix, verdict in expectations.items():
            if engine == prefix or engine.startswith(prefix + " "):
                if record["verdict"] != verdict:
                    failures.append(
                        f"{design} / {engine}: expected {verdict}, "
                        f"got {record['verdict']}")

    # Verdict diff against a committed trajectory snapshot (BENCH_*.json).
    # Every baseline cell must be matched by the fresh run: a renamed engine
    # label or a dropped design must fail loudly (regenerate the snapshot
    # alongside such a change), not silently vacate the gate.
    if len(sys.argv) == 3:
        with open(sys.argv[2], encoding="utf-8") as f:
            baseline = {(r["design"], r["engine"]): r for r in json.load(f)}
        fresh_keys = {(r["design"], r["engine"]) for r in records}
        compared = 0
        for record in records:
            key = (record["design"], record["engine"])
            if key not in baseline:
                continue
            compared += 1
            base = baseline[key]
            if record["verdict"] != base["verdict"]:
                failures.append(
                    f"{key[0]} / {key[1]}: baseline {sys.argv[2]} says "
                    f"{base['verdict']}, this run says {record['verdict']}")
            for counter in DETERMINISTIC_COUNTERS:
                if record[counter] != base[counter]:
                    failures.append(
                        f"{key[0]} / {key[1]}: {counter} {record[counter]} "
                        f"!= baseline {base[counter]} in {sys.argv[2]} — the "
                        f"search changed; regenerate the snapshot if intended")
        for key in sorted(baseline.keys() - fresh_keys):
            failures.append(
                f"{key[0]} / {key[1]}: in baseline {sys.argv[2]} but missing "
                f"from this run — regenerate the snapshot if intentional")
        if compared == 0:
            failures.append(
                f"baseline {sys.argv[2]} shares no cells with this run")
        print(f"baseline diff vs {sys.argv[2]}: {compared} cells compared")

    # The proof-cache gate (kind == "pdr-cache", from the E9 experiment and
    # docs/serve.md). Per design the experiment emits three rows: a cold PDR
    # run whose invariant is stored ("pdr-cache cold+store"), an exact-hit
    # recertification on a fresh elaboration ("pdr-cache warm"), and a
    # near-miss warm start on an edited copy ("pdr-cache warm-edit"). Unlike
    # the wall-clock reports this section *gates*:
    #   * every warm row must reproduce the cold verdict — a cache may cost
    #     work, never an answer;
    #   * the exact-hit path must be an Exact lookup and cut SAT conflicts by
    #     at least 5x on two or more designs (the cache's reason to exist);
    #   * every warm-edit row must be a Near lookup that actually seeded
    #     candidates (candidates_seeded > 0) — otherwise the incremental
    #     path silently degraded to a cold run.
    cache_cells = {}
    for record in records:
        if record.get("kind") != "pdr-cache":
            continue
        label = record["engine"].split(" ", 1)[1] if " " in record["engine"] else ""
        cache_cells.setdefault(record["design"], {})[label] = record
    warm_wins = 0
    for design, cells in sorted(cache_cells.items()):
        missing = {"cold+store", "warm", "warm-edit"} - cells.keys()
        if missing:
            failures.append(
                f"{design} / pdr-cache: missing rows {sorted(missing)}")
            continue
        cold, warm, edit = cells["cold+store"], cells["warm"], cells["warm-edit"]
        if cold.get("cache") != "stored":
            failures.append(
                f"{design} / pdr-cache cold+store: proof was not stored "
                f"(cache={cold.get('cache')})")
        for row, want in ((warm, "exact"), (edit, "near")):
            if row.get("cache") != want:
                failures.append(
                    f"{design} / {row['engine']}: expected a {want} lookup, "
                    f"got {row.get('cache')}")
            if row["verdict"] != cold["verdict"]:
                failures.append(
                    f"{design} / {row['engine']}: verdict {row['verdict']} "
                    f"!= cold verdict {cold['verdict']}")
        ratio = (cold["conflicts"] / warm["conflicts"]
                 if warm["conflicts"] else float("inf"))
        if ratio >= 5.0:
            warm_wins += 1
        print(f"proof cache on {design}: cold {cold['conflicts']} conflicts -> "
              f"recertify {warm['conflicts']} ({ratio:.1f}x), edited warm "
              f"{edit['conflicts']} with {edit.get('candidates_seeded', 0)} "
              f"seeded / {edit.get('candidates_graduated', 0)} graduated")
        if edit.get("candidates_seeded", 0) <= 0:
            failures.append(
                f"{design} / pdr-cache warm-edit: near miss seeded no "
                f"candidates — the warm start degraded to a cold run")
    if cache_cells:
        print(f"proof cache recertification cuts conflicts >=5x on "
              f"{warm_wins}/{len(cache_cells)} designs")
        if warm_wins < 2:
            failures.append(
                f"pdr-cache warm gate: recertification cut conflicts by >=5x "
                f"on only {warm_wins} design(s) (gate: >= 2)")

    if failures:
        print("\nverdict regressions:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"{len(records)} records, no verdict regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())

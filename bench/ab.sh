#!/bin/sh
# Host-cost A/B between two commits, built from local history:
#
#   sh bench/ab.sh REV_A REV_B [--workload W|all] [--pairs N]
#
# Run it from anywhere inside the repository. REV is anything
# `git rev-parse` resolves to a commit, or WORKTREE for the working tree as
# `git add -A` would stage it (written through a private index, so neither
# HEAD nor the index moves). Defaults: --workload monitor-sessions,
# --pairs 10. `--workload all` runs every workload BENCHMARK.json lists,
# one after another, with one table block per workload. Every run has the
# benchmark's own length (perf/run.sh's default, 10 s), so 10 pairs take 5
# to 7 minutes per workload.
#
# 1. Each side's tree is exported with `git archive` into _perf/ab/<tree>/
#    and built there once (later calls reuse the build).
# 2. Code layout: where a few hot units' code starts in each side's
#    perf/main.exe, as an offset past caml_startup's. A unit whose code
#    moved can move a time row with no change to its own code, so each
#    move is flagged with its distance mod 64 (the cache-line phase).
#    Offsets are relative because a change linked ahead of caml_startup
#    shifts every unit by the same page-sized step without moving any of
#    them against each other.
# 3. Allocation ledger: `bench all --jobs 1` in each checkout, then
#    `bench/main.exe ledger-diff` of this checkout judges B's per-target
#    words against A's with the rule `bench check --full` applies to the
#    committed ledger. The ledger is exact, so one run per side settles
#    it. Both records need schema erebor-bench-sim/2 (per-target words).
# 4. Per workload, N alternating pairs of `sh perf/run.sh --workload W
#    --seed i --trace 0`: pair i uses seed i for both sides, A first on odd
#    pairs and B first on even ones.
# 5. Per workload, one table row per end-to-end metric: the median over
#    the N runs of each side, the delta, B's wins (strictly lower; every
#    end-to-end metric is lower-is-better), A's quartile distance, and
#    `perf/main.exe compare`'s verdict on the two medians with the spread
#    across runs.
#
# Everything is written under _perf/ab/ (ignored by git); no tracked file
# changes. Exits 1 if a run fails or compare reports a regression on any
# workload.
set -eu
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

usage() {
  echo "usage: sh bench/ab.sh REV_A REV_B [--workload W|all] [--pairs N]" >&2
  exit 2
}

[ $# -ge 2 ] || usage
rev_a=$1
rev_b=$2
shift 2
workload=monitor-sessions
pairs=10
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case $1 in
    --workload) workload=$2 ;;
    --pairs) pairs=$2 ;;
    *) usage ;;
  esac
  shift 2
done

out=_perf/ab
mkdir -p "$out"

tree_of() {
  if [ "$1" = WORKTREE ]; then
    idx="$PWD/$out/worktree.index"
    rm -f "$idx"
    GIT_INDEX_FILE=$idx git read-tree HEAD
    GIT_INDEX_FILE=$idx git add -A
    GIT_INDEX_FILE=$idx git write-tree
    rm -f "$idx"
  else
    git rev-parse --verify --quiet "$1^{tree}" || {
      echo "ab: $1 is not a revision" >&2
      exit 2
    }
  fi
}

checkout() {
  dir=$out/$1
  if [ ! -f "$dir/.ab-built" ]; then
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "$1" | tar -x -C "$dir"
    [ -f "$dir/perf/run.sh" ] || {
      echo "ab: tree $1 has no perf/run.sh" >&2
      exit 2
    }
    echo "ab: building $dir" >&2
    (cd "$dir" && dune build --root . --cache=disabled --display=quiet bench/main.exe perf/main.exe) >&2
    touch "$dir/.ab-built"
  fi
}

tree_a=$(tree_of "$rev_a")
tree_b=$(tree_of "$rev_b")
checkout "$tree_a"
checkout "$tree_b"
if [ "$workload" = all ]; then
  workloads=$(sed -n '/"workloads"/,/\]/p' BENCHMARK.json | grep -o '"name": "[^"]*"' | cut -d'"' -f4)
else
  workloads=$workload
fi

echo "A = $rev_a (tree $tree_a)"
echo "B = $rev_b (tree $tree_b)"
echo "workloads" $workloads", $pairs pairs each"
echo

# -- Code layout ------------------------------------------------------------

layout_units="camlSim__Machine camlErebor__Monitor camlHw__Cpu camlCrypto__Bignum camlCrypto__Chacha20"

# Bytes from caml_startup's code to unit $2's in tree $1's perf/main.exe;
# empty when the unit is not linked.
code_offset() {
  nm "$out/$1/_build/default/perf/main.exe" | awk -v u="$2" '
    $3 == "caml_startup.code_begin" { base = $1 }
    $3 == u ".code_begin" { at = $1 }
    END { if (base != "" && at != "") print base, at }
  ' | { read -r base at && echo $((0x$at - 0x$base)); } || true
}

echo "code layout (perf/main.exe, bytes past caml_startup.code_begin)"
printf "%-22s %10s %10s  %s\n" unit A B move
for u in $layout_units; do
  a=$(code_offset "$tree_a" "$u")
  b=$(code_offset "$tree_b" "$u")
  if [ -z "$a" ] || [ -z "$b" ]; then
    move="not linked on one side"
  elif [ "$a" -eq "$b" ]; then
    move=-
  else
    d=$((b - a))
    move="MOVED $d bytes, $(((d % 64 + 64) % 64)) mod 64"
  fi
  printf "%-22s %10s %10s  %s\n" "$u" "${a:--}" "${b:--}" "$move"
done
echo

# -- Allocation ledger ------------------------------------------------------

ledgers=$out/ledger-$tree_a-$tree_b
rm -rf "$ledgers"
mkdir -p "$ledgers"
ledger() {
  (cd "$out/$1" && ./_build/default/bench/main.exe all --jobs 1 >/dev/null 2>&1 \
    && cat BENCH_sim.new.json) > "$2"
}
ledger "$tree_a" "$ledgers/a.json"
ledger "$tree_b" "$ledgers/b.json"
dune build --root . --display=quiet bench/main.exe >&2
# A failing row is reported, not fatal: a ledger move is often the point.
./_build/default/bench/main.exe ledger-diff "$ledgers/a.json" "$ledgers/b.json" || true
echo

# -- Alternating perf pairs, per workload -----------------------------------

run_one() {
  (cd "$out/$1" && sh perf/run.sh --workload "$workload" --seed "$2" --trace 0 \
    2>/dev/null) > "$3" || true
}

# One workload's pairs, table and verdicts; non-zero if a run failed or
# compare reports a regression.
ab_workload() {
  workload=$1
  runs=$out/runs-$tree_a-$tree_b-$workload
  rm -rf "$runs"
  mkdir -p "$runs"
  echo "== workload $workload, $pairs pairs"
  i=1
  while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
      run_one "$tree_a" "$i" "$runs/a.$i"
      run_one "$tree_b" "$i" "$runs/b.$i"
    else
      run_one "$tree_b" "$i" "$runs/b.$i"
      run_one "$tree_a" "$i" "$runs/a.$i"
    fi
    echo "ab: $workload pair $i of $pairs done" >&2
    i=$((i + 1))
  done

  # Medians and wins per metric; A.json and B.json carry the medians with the
  # spread across runs (quartile distance over median, the quartiles of
  # perf/stats.ml) in the shape `perf/main.exe compare` reads.
  awk -v n="$pairs" -v w="$workload" -v dir="$runs" '
    function sort(x, k,   i, j, v) {
      for (i = 2; i <= k; i++) {
        v = x[i]
        for (j = i - 1; j >= 1 && x[j] > v; j--) x[j + 1] = x[j]
        x[j + 1] = v
      }
    }
    function median(x, k) {
      return k % 2 ? x[(k + 1) / 2] : (x[k / 2] + x[k / 2 + 1]) / 2
    }
    # Cut point i of 4 over x[1..k], Python statistics.quantiles "exclusive".
    function quart(x, k, i,   m, j, d) {
      if (k == 1) return x[1]
      m = k + 1
      j = int(i * m / 4); if (j < 1) j = 1; if (j > k - 1) j = k - 1
      d = i * m - j * 4
      return (x[j] * (4 - d) + x[j + 1] * d) / 4
    }
    function stats(side, m,   x, i, med, q1, q3) {
      for (i = 1; i <= n; i++) x[i] = val[side, m, i]
      sort(x, n)
      med = median(x, n); q1 = quart(x, n, 1); q3 = quart(x, n, 3)
      S_med = med; S_iqr = q3 - q1
    }
    FNR == 1 {
      f = FILENAME; sub(/.*\//, "", f)
      side = substr(f, 1, 1); pair = substr(f, 3) + 0
    }
    /^\{"correct"/ {
      seen[side, pair] = 1
      if ($0 !~ /"correct": true/) bad = bad " " side "." pair
      if (!nm) {
        s = $0
        while (match(s, /"[a-z0-9_]+": \{"value"/)) {
          names[++nm] = substr(s, RSTART + 1, RLENGTH - 12)
          s = substr(s, RSTART + RLENGTH)
        }
      }
      next
    }
    $1 == w && NF == 4 { val[side, $2, pair] = $3 }
    END {
      for (i = 1; i <= n; i++) {
        if (!(("a", i) in seen)) bad = bad " a." i
        if (!(("b", i) in seen)) bad = bad " b." i
      }
      if (bad != "") { print "ab: runs failed or missing:" bad; exit 1 }
      for (side = 0; side <= 1; side++) {
        s = side ? "b" : "a"
        file = dir "/" (side ? "B" : "A") ".json"
        printf "{\"workloads\": {\"%s\": {\"metrics\": {", w > file
        for (k = 1; k <= nm; k++) {
          stats(s, names[k])
          printf "%s\"%s\": {\"value\": %.17g, \"spread\": %.17g}", (k > 1 ? ", " : ""),
            names[k], S_med, (S_med == 0 ? 0 : S_iqr / (S_med < 0 ? -S_med : S_med)) > file
        }
        print "}}}}" > file
        close(file)
      }
      for (k = 1; k <= nm; k++) {
        m = names[k]
        stats("a", m); am = S_med; aiqr = S_iqr
        stats("b", m); bm = S_med
        wins = 0
        for (i = 1; i <= n; i++) if (val["b", m, i] + 0 < val["a", m, i] + 0) wins++
        printf "%s %.17g %.17g %d %.17g\n", m, am, bm, wins, aiqr > (dir "/summary.txt")
      }
    }
  ' "$runs"/a.* "$runs"/b.* || return 1

  verdict=0
  "$out/$tree_b/_build/default/perf/main.exe" compare "$runs/A.json" "$runs/B.json" \
    > "$runs/compare.txt" || verdict=1

  awk -v n="$pairs" '
    FNR == NR { am[$1] = $2; bm[$1] = $3; wins[$1] = $4; iqr[$1] = $5; order[++k] = $1; next }
    NF >= 6 && ($2 in am) { v = $6; for (i = 7; i <= NF; i++) v = v " " $i; verdict[$2] = v }
    END {
      printf "%-22s %12s %12s %9s %6s %9s  %s\n", "metric", "median A", "median B", "delta",
        "B wins", "IQR A", "compare verdict"
      for (i = 1; i <= k; i++) {
        m = order[i]
        d = am[m] == 0 ? 0 : 100 * (bm[m] - am[m]) / am[m]
        q = am[m] == 0 ? 0 : 100 * iqr[m] / am[m]
        printf "%-22s %12.6g %12.6g %+8.2f%% %3d/%-2d %8.2f%%  %s\n", m, am[m], bm[m], d,
          wins[m], n, q, (m in verdict ? verdict[m] : "-")
      }
    }
  ' "$runs/summary.txt" "$runs/compare.txt"
  echo "runs, A.json, B.json and compare.txt are in $runs"
  echo
  return "$verdict"
}

status=0
for w in $workloads; do
  ab_workload "$w" || status=1
done
exit "$status"

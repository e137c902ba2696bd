#!/bin/sh
# Repo check: build, run the test suites, then smoke-test the static
# analyzers over the example MiniC inputs. Any unexpected exit fails.
#
#   scripts/check.sh
#
# The static smoke test asserts the documented verdicts: examples named
# unstable_*.c must produce detection-grade findings (exit 1), examples
# named stable_*.c must be clean (exit 0). Exit code 2 (parse/usage
# error) always fails.

set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

# again on four pool domains: the oracle's pooled per-class branch runs
# only when jobs > 1.  --force because dune does not re-run a cached
# test when only an undeclared environment variable changed.
echo "== COMPDIFF_JOBS=4 dune runtest --force"
COMPDIFF_JOBS=4 dune runtest --force

echo "== static smoke test over examples/*.c"
status=0
for f in examples/*.c; do
  [ -e "$f" ] || continue
  case "$(basename "$f")" in
    stable_*) want=0 ;;
    *) want=1 ;;
  esac
  set +e
  dune exec bin/compdiff_cli.exe -- static "$f" > /dev/null 2>&1
  got=$?
  set -e
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $f: compdiff static exited $got, expected $want"
    status=1
  else
    echo "ok   $f (exit $got)"
  fi
done

echo "== linked-vs-reference executor smoke test"
# The linked-image executor (the default everywhere) must be
# byte-identical to the tree-walking reference interpreter on every
# example, across all 10 profiles, including arena reuse.
for f in examples/*.c; do
  [ -e "$f" ] || continue
  set +e
  dune exec bin/compdiff_cli.exe -- vmcheck "$f"
  got=$?
  set -e
  if [ "$got" -ne 0 ]; then
    echo "FAIL $f: compdiff vmcheck exited $got"
    status=1
  fi
done

echo "== parallel-vs-sequential oracle smoke test"
# The pooled+deduped oracle must produce byte-identical diff reports and
# exit codes to the sequential one on every example.
for f in examples/*.c; do
  [ -e "$f" ] || continue
  set +e
  out1=$(COMPDIFF_JOBS=1 dune exec bin/compdiff_cli.exe -- diff "$f" 2>&1)
  got1=$?
  out4=$(COMPDIFF_JOBS=4 dune exec bin/compdiff_cli.exe -- diff "$f" --jobs 4 2>&1)
  got4=$?
  set -e
  if [ "$got1" -ne "$got4" ] || [ "$out1" != "$out4" ]; then
    echo "FAIL $f: jobs=1 and jobs=4 disagree (exit $got1 vs $got4)"
    status=1
  else
    echo "ok   $f (jobs=1 == jobs=4, exit $got1)"
  fi
done

echo "== engine session smoke test"
# Cached vs fresh: the same diff with caching disabled and enabled must
# produce identical reports and exit codes, and a second cached juliet
# pass must be served from the session caches (nonzero hit rate).
for f in examples/unstable_uninit.c examples/stable_guarded.c; do
  set +e
  out0=$(dune exec bin/compdiff_cli.exe -- diff "$f" --cache-mb 0 2>&1)
  got0=$?
  out1=$(dune exec bin/compdiff_cli.exe -- diff "$f" --cache-mb 128 2>&1)
  got1=$?
  set -e
  if [ "$got0" -ne "$got1" ] || [ "$out0" != "$out1" ]; then
    echo "FAIL $f: cached and uncached diff disagree (exit $got0 vs $got1)"
    status=1
  else
    echo "ok   $f (cache-mb 0 == cache-mb 128, exit $got0)"
  fi
done
juliet_stats=$(dune exec bin/compdiff_cli.exe -- juliet --per-cwe 1 --stats 2>&1)
hits=$(printf '%s\n' "$juliet_stats" \
  | sed -n 's/^ *units *\([0-9]*\) hits.*/\1/p')
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
  echo "FAIL juliet --stats: expected a nonzero unit-cache hit count"
  printf '%s\n' "$juliet_stats" | tail -5
  status=1
else
  echo "ok   juliet --stats (unit cache: $hits hits)"
fi

echo "== disk cache smoke test"
# Cross-process persistence: fresh processes sharing one --disk-cache
# directory. The second process starts with empty in-memory LRUs, so it
# must produce byte-identical verdicts *and* report nonzero disk hits in
# --stats (every hit it gets can only have come back from the store).
diskdir=$(mktemp -d)
set +e
disk1=$(dune exec bin/compdiff_cli.exe -- juliet --per-cwe 1 \
  --disk-cache "$diskdir" 2>&1)
dgot1=$?
disk2=$(dune exec bin/compdiff_cli.exe -- juliet --per-cwe 1 \
  --disk-cache "$diskdir" 2>&1)
dgot2=$?
disk3=$(dune exec bin/compdiff_cli.exe -- juliet --per-cwe 1 \
  --disk-cache "$diskdir" --stats 2>&1)
set -e
rm -rf "$diskdir"
dhits=$(printf '%s\n' "$disk3" \
  | sed -n 's/^ *disk *\([0-9]*\) hits.*/\1/p')
if [ "$dgot1" -ne "$dgot2" ] || [ "$disk1" != "$disk2" ]; then
  echo "FAIL disk cache: restarted process disagrees (exit $dgot1 vs $dgot2)"
  status=1
elif [ -z "$dhits" ] || [ "$dhits" -eq 0 ]; then
  echo "FAIL disk cache: expected nonzero disk hits in a restarted process"
  printf '%s\n' "$disk3" | tail -8
  status=1
else
  echo "ok   disk cache (verdicts identical across restart, $dhits disk hits)"
fi

echo "== metacheck smoke test"
# The metamorphic meta-checker on the canonical eval-order seed (the
# oracle diverges on argument evaluation order, every sanitizer is
# silent) must cross-validate a sanitizer FN and generate at least 5
# UB-preserving twins, all of which re-typecheck (exit 2 otherwise).
seed=$(mktemp --suffix=.c)
cat > "$seed" <<'SEED'
int *addr_string(int v) {
  static int buffer[8];
  buffer[0] = 48 + v;
  buffer[1] = 0;
  return buffer;
}
int main() {
  print("who-is %s tell %s\n", addr_string(1), addr_string(2));
  return 0;
}
SEED
set +e
meta_out=$(dune exec bin/compdiff_cli.exe -- metacheck "$seed" 2>&1)
got=$?
set -e
rm -f "$seed"
if [ "$got" -ne 0 ]; then
  echo "FAIL metacheck: exited $got (retype failure or error)"
  printf '%s\n' "$meta_out" | tail -5
  status=1
else
  twins=$(printf '%s\n' "$meta_out" \
    | sed -n 's/^preserving twins: \([0-9]*\)$/\1/p' | head -1)
  if [ -z "$twins" ] || [ "$twins" -lt 5 ]; then
    echo "FAIL metacheck: ${twins:-0} preserving twins < 5"
    status=1
  elif ! printf '%s\n' "$meta_out" | grep -q "cross-validated FN"; then
    echo "FAIL metacheck: known sanitizer FN not cross-validated"
    status=1
  else
    echo "ok   metacheck ($twins preserving twins, sanitizer FN cross-validated)"
  fi
fi

echo "== reduce smoke test"
# Reduce a known divergence and assert the contract: the reduced input
# is no larger than the original, and still diverges under compdiff diff.
red=$(mktemp)
set +e
reduce_out=$(dune exec bin/compdiff_cli.exe -- reduce examples/unstable_uninit.c \
  --input 'XYZQRS' --stats --out "$red" 2>&1)
got=$?
set -e
if [ "$got" -ne 1 ]; then
  echo "FAIL reduce: exited $got, expected 1 (divergence reduced)"
  status=1
else
  raw_size=$(wc -c < "$red.orig")
  red_size=$(wc -c < "$red")
  if [ "$red_size" -gt "$raw_size" ]; then
    echo "FAIL reduce: reduced input grew ($raw_size -> $red_size bytes)"
    status=1
  else
    set +e
    dune exec bin/compdiff_cli.exe -- diff examples/unstable_uninit.c \
      --input-file "$red" > /dev/null 2>&1
    diffgot=$?
    set -e
    if [ "$diffgot" -ne 1 ]; then
      echo "FAIL reduce: reduced input no longer flagged (diff exit $diffgot)"
      status=1
    else
      # the acceptance bar: median input reduction of at least 50%
      median=$(printf '%s\n' "$reduce_out" \
        | sed -n 's/.*median input reduction \([0-9]*\)%.*/\1/p')
      if [ -z "$median" ] || [ "$median" -lt 50 ]; then
        echo "FAIL reduce: median input reduction ${median:-?}% < 50%"
        status=1
      else
        echo "ok   reduce ($raw_size -> $red_size bytes, median ${median}%, still diverges)"
      fi
    fi
  fi
fi
echo "== reduce smoke test (profile subset)"
# Program reduction must also shrink the program when the oracle judges
# a profile subset: candidates are recompiled with the same profiles.
set +e
sub_out=$(dune exec bin/compdiff_cli.exe -- reduce examples/unstable_uninit.c \
  --input 'XYZQRS' --profiles gccx-O0,clangx-O3 --stats 2>&1)
got=$?
set -e
stmts=$(printf '%s\n' "$sub_out" \
  | sed -n 's/.*program: \([0-9]*\) -> \([0-9]*\) statements.*/\1 \2/p')
if [ "$got" -ne 1 ]; then
  echo "FAIL reduce subset: exited $got, expected 1 (divergence reduced)"
  status=1
elif [ -z "$stmts" ] || [ "${stmts#* }" -ge "${stmts% *}" ]; then
  echo "FAIL reduce subset: program did not shrink (${stmts:-no program line})"
  status=1
else
  echo "ok   reduce subset (program ${stmts% *} -> ${stmts#* } statements)"
fi
echo "== explore smoke test"
# Time-travel the divergence the reducer just minimized: explore must
# record both sides at instruction granularity, pin a first diverging
# instruction on each (with a source-line attribution), and print a
# value diff for it.
set +e
explore_out=$(dune exec bin/compdiff_cli.exe -- explore examples/unstable_uninit.c \
  --input-file "$red" 2>&1)
got=$?
set -e
if [ "$got" -ne 1 ]; then
  echo "FAIL explore: exited $got, expected 1 (divergence explored)"
  printf '%s\n' "$explore_out" | tail -5
  status=1
elif ! printf '%s\n' "$explore_out" \
    | grep -q 'first diverging instruction: step [0-9]*, .*(line [0-9]*)'; then
  echo "FAIL explore: no line-attributed first diverging instruction"
  printf '%s\n' "$explore_out" | tail -8
  status=1
elif ! printf '%s\n' "$explore_out" | grep -q 'diff (.* probes): .* writes '; then
  echo "FAIL explore: no value diff at the diverging instruction"
  printf '%s\n' "$explore_out" | tail -8
  status=1
else
  at=$(printf '%s\n' "$explore_out" \
    | sed -n 's/.*first diverging instruction: step \([0-9]*\).*/\1/p' | head -1)
  echo "ok   explore (first diverging instruction at step $at, value diff shown)"
fi
rm -f "$red" "$red.orig"

echo "== labeled-corpus generator smoke test"
# 50 generated clean/injected pairs swept through every tool: all 50
# must survive print -> parse -> typecheck (the generator emits source),
# and no clean twin may diverge under the oracle -- a clean-twin
# divergence disproves the generator's UB-freedom argument.
set +e
gen_out=$(dune exec bin/compdiff_cli.exe -- gen --count 50 --report 2>&1)
got=$?
set -e
gen_fail=$(printf '%s\n' "$gen_out" \
  | sed -n 's/.*typecheck failures: \([0-9]*\)).*/\1/p' | head -1)
gen_clean=$(printf '%s\n' "$gen_out" \
  | sed -n 's/^clean-twin divergences: \([0-9]*\)$/\1/p' | head -1)
if [ "$got" -ne 0 ]; then
  echo "FAIL gen: exited $got"
  printf '%s\n' "$gen_out" | tail -5
  status=1
elif [ "${gen_fail:-1}" -ne 0 ]; then
  echo "FAIL gen: ${gen_fail:-?} typecheck failures (expected 0)"
  status=1
elif [ "${gen_clean:-1}" -ne 0 ]; then
  echo "FAIL gen: ${gen_clean:-?} clean-twin divergences (expected 0)"
  status=1
else
  echo "ok   gen (50 pairs, 0 typecheck failures, 0 clean-twin divergences)"
fi

echo "== serve daemon smoke test"
# A daemon on a Unix socket must serve concurrent clients verdicts that
# are byte-identical to the direct (in-process) diff path, then exit on
# its own via the idle timeout, removing its socket.  The daemon and
# its clients run the built binary directly: `dune exec` holds the
# build-directory lock for the program's whole lifetime, which would
# serialize the concurrent clients behind the daemon.
BIN=_build/default/bin/compdiff_cli.exe
sock="$(mktemp -u -t compdiff_check_XXXXXX).sock"
"$BIN" serve --socket "$sock" --idle-timeout 10 --quiet &
serve_pid=$!
i=0
while [ ! -S "$sock" ] && [ $i -lt 100 ]; do sleep 0.1; i=$((i + 1)); done
if [ ! -S "$sock" ]; then
  echo "FAIL serve: daemon socket never appeared"
  status=1
else
  set +e
  "$BIN" connect --socket "$sock" --ping > /dev/null 2>&1
  pinged=$?
  set -e
  if [ "$pinged" -ne 0 ]; then
    echo "FAIL serve: ping failed"
    status=1
  fi
  # two clients at once, each asserting daemon == direct per example
  serve_client() {
    for f in examples/*.c; do
      [ -e "$f" ] || continue
      set +e
      direct=$("$BIN" diff "$f" 2>&1)
      dgot=$?
      viad=$("$BIN" diff "$f" --daemon "$sock" 2>&1)
      vgot=$?
      set -e
      if [ "$dgot" -ne "$vgot" ] || [ "$direct" != "$viad" ]; then
        echo "FAIL serve[$1] $f: daemon and direct disagree (exit $dgot vs $vgot)"
        return 1
      fi
    done
  }
  client_status=0
  serve_client A & ca=$!
  serve_client B & cb=$!
  wait $ca || client_status=1
  wait $cb || client_status=1
  if [ "$client_status" -ne 0 ]; then
    status=1
  else
    echo "ok   serve (2 concurrent clients, daemon == direct on every example)"
  fi
fi
# with no clients left, the idle timeout must shut the daemon down
set +e
wait $serve_pid
served=$?
set -e
if [ "$served" -ne 0 ]; then
  echo "FAIL serve: daemon exited $served"
  status=1
elif [ -e "$sock" ]; then
  echo "FAIL serve: socket file left behind after idle shutdown"
  status=1
else
  echo "ok   serve (idle timeout shutdown, socket removed)"
fi

exit $status

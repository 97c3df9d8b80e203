#!/bin/sh
# compose-smoke: end-to-end gate for the scenario-composition DSL.
#
# A composed two-phase spec (a promoted halo pattern plus the Fig 9
# fetch-and-add figure pattern under a fault plan) is posted to a fresh
# simd at every (-sweep-workers, -shards) combination in {1,4} x {1,4}.
# For each server:
#   - the cold response and the cached response must be byte-identical,
#   - the second response must actually come from the cache (X-Cache: hit),
#   - the server must drain cleanly on SIGTERM.
# Across servers, every artifact must be byte-identical: worker and
# shard counts are execution knobs, never part of a job's identity.
# Finally the same spec runs through `armci-bench compose` offline and
# must reproduce the exact bytes the servers cached.
set -eu

ADDR=127.0.0.1:19871
BIN=$(mktemp -d)
SIMD_PID=
trap 'test -n "$SIMD_PID" && kill "$SIMD_PID" 2>/dev/null; rm -rf "$BIN"' EXIT

go build -o "$BIN/simd" ./cmd/simd
go build -o "$BIN/armci-bench" ./cmd/armci-bench

SPEC="$BIN/spec.json"
cat > "$SPEC" <<'EOF'
{"compose":{"phases":[
  {"pattern":"halo","params":{"tiles_x":2,"tiles_y":2,"tile_n":8,"iters":3},
   "topology":{"per_node":4},"engine":{"mode":"async"}},
  {"pattern":"fetchadd","params":{"ops_each":3},
   "topology":{"procs":[4],"per_node":4},
   "fault":{"seed":7,"events":[{"kind":"link_down","start_us":30050,"dur_us":100}]}}
]}}
EOF

REF=
for combo in "1 1" "4 1" "1 4" "4 4"; do
    set -- $combo
    WORKERS=$1
    SHARDS=$2
    "$BIN/simd" -addr "$ADDR" -sweep-workers "$WORKERS" -shards "$SHARDS" &
    SIMD_PID=$!

    i=0
    until curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "compose-smoke: simd at $ADDR not healthy" >&2
            exit 1
        fi
        sleep 0.1
    done

    COLD="$BIN/cold-$WORKERS-$SHARDS"
    HOT="$BIN/hot-$WORKERS-$SHARDS"
    curl -fsS -d @"$SPEC" "http://$ADDR/v1/compose" > "$COLD"
    curl -fsS -D "$BIN/hdr" -d @"$SPEC" "http://$ADDR/v1/compose" > "$HOT"
    if ! grep -qi '^x-cache: hit' "$BIN/hdr"; then
        echo "compose-smoke: second request was not a cache hit (workers=$WORKERS shards=$SHARDS)" >&2
        exit 1
    fi
    cmp "$COLD" "$HOT"
    if [ -z "$REF" ]; then
        REF="$COLD"
    else
        cmp "$REF" "$COLD"
    fi

    kill -TERM "$SIMD_PID"
    if ! wait "$SIMD_PID"; then
        echo "compose-smoke: simd did not drain cleanly (workers=$WORKERS shards=$SHARDS)" >&2
        exit 1
    fi
    SIMD_PID=
done
echo "compose determinism across workers x shards OK"

# Offline reproduction: the CLI driver must emit the exact bytes the
# servers cached for the same spec.
"$BIN/armci-bench" compose "$SPEC" -csv -parallel 4 -shards 4 > "$BIN/offline.csv"
cmp "$REF" "$BIN/offline.csv"
echo "compose smoke OK"

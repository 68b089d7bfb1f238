#!/bin/sh
# CI gate: formatting, vet, build, tests. Run from the repo root (or via
# `make check`). Fails fast with a named step so CI logs are readable.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> crash recovery under race (go test -race -run 'CrashRecovery|Recovery')"
go test -race -run 'CrashRecovery|Recovery' ./internal/authz/ ./internal/daemon/

echo "==> transport + replication chaos under race (go test -race -count=2 -run Chaos ./internal/daemon/)"
# Matches TestChaosJoinRequestRevokeRequest (single daemon) and
# TestChaosReplicatedFleet (writer + two followers over Faulty links).
go test -race -count=2 -run Chaos ./internal/daemon/

echo "==> bench smoke (go test -bench='Authorize|ForkScaling' -benchtime=1x)"
go test -run '^$' -bench='Authorize|ForkScaling' -benchtime=1x .

echo "==> bench smoke (go test -bench=WALAppend -benchtime=1x ./internal/wal)"
go test -run '^$' -bench=WALAppend -benchtime=1x ./internal/wal

echo "==> bench smoke (go test -bench=FollowerFleet -benchtime=1x ./internal/daemon)"
go test -run '^$' -bench=FollowerFleet -benchtime=1x ./internal/daemon

echo "==> perfbench self-test (every workload at tiny scale: correct decisions, exact layer counts)"
(cd perfbench && go test ./...)

echo "==> loadgen smoke (tiny coalition, 2s closed loop with churn)"
go run ./cmd/loadgen -principals 2000 -objects 16 -keys 8 -pool 48 \
    -duration 2s -concurrency 2 -churn-every 300ms -label smoke > /dev/null

echo "==> loadgen wire smoke (same coalition over localhost TCP via mux clients)"
go run ./cmd/loadgen -principals 2000 -objects 16 -keys 8 -pool 48 \
    -duration 2s -concurrency 4 -transport -conns 2 -churn-every 300ms \
    -label wire-smoke > /dev/null

echo "==> delegation scenario smoke (8-scenario suite incl. depth bound through the daemon)"
go run ./cmd/experiments -only e12 > /dev/null

echo "==> fuzz (each decoder of untrusted bytes, 10s per target)"
for target in \
    ./internal/transport:FuzzReadFrame \
    ./internal/daemon:FuzzDecodeCommand \
    ./internal/daemon:FuzzDecodeReply \
    ./internal/wal:FuzzFrameScan \
    ./internal/pki:FuzzCRLUnmarshal \
    ./internal/pki:FuzzDelegationUnmarshal \
    ./internal/logic:FuzzParseFormula; do
    go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime 10s "${target%%:*}"
done

echo "==> docs lint (every CLI flag and registered metric documented)"
fail=0
# One row per family: what it is; source files (tests excluded); pattern
# around the quoted name; what the docs write before the name.
while IFS=';' read -r what files pattern lead; do
    # shellcheck disable=SC2086
    names=$(ls $files | grep -v '_test\.go$' | xargs grep -ohE "$pattern" |
        grep -oE '"[^"]+"' | tr -d '"' | sort -u)
    for n in $names; do
        if ! grep -rqF -- "$lead$n" docs/; then
            echo "docs lint: $what $lead$n ($files) not documented anywhere in docs/" >&2
            fail=1
        fi
    done
done <<'EOF'
flag;cmd/coalitiond/main.go cmd/policyctl/main.go cmd/loadgen/main.go;flag\.[A-Za-z]+\("[a-z][a-z0-9-]*";-
metric;internal/authz/*.go;"authz_[a-z_]+";
metric;internal/daemon/*.go;"daemon_[a-z_]+";
metric;internal/delegation/*.go;"delegation_[a-z_]+";
metric;internal/jointsig/*.go;"jointsig_[a-z_]+";
metric;internal/replication/*.go;"repl_[a-z_]+";
metric;internal/sim/load/*.go;"loadgen_[a-z_]+";
metric;internal/transport/*.go;"transport_[a-z_]+";
metric;internal/wal/*.go;"(wal|snapshot)_[a-z_]+";
EOF
# Mutation verb parity: every authz.Mutation verb must be wired through
# policyctl's mutate command and documented.
verbs=$(grep -ohE 'Verb[A-Za-z]+ = "[a-z-]+"' internal/authz/mutation.go |
    sed -E 's/.*"([^"]+)"/\1/' | sort -u)
for v in $verbs; do
    if ! grep -q -- "-op $v" cmd/policyctl/main.go; then
        echo "verb parity: mutation verb '$v' has no -op example in cmd/policyctl/main.go" >&2
        fail=1
    fi
    if ! grep -rq -- "$v" docs/; then
        echo "verb parity: mutation verb '$v' not documented anywhere in docs/" >&2
        fail=1
    fi
done
[ "$fail" -eq 0 ] || exit 1

echo "OK"

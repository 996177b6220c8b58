#!/bin/sh
# Strict numeric flags: a non-numeric or out-of-range value must print the
# parse error and the usage and exit 2 — never abort on an uncaught
# exception (exit 134) or fall back to a default (an ephemeral port, seed 0).
#
#   tests/cli_flags_test.sh <classminer> <classminerd> <classminer-client> \
#     <server_load> <sec62_indexing>
set -u
cli=$1
daemon=$2
client=$3
server_load=$4
sec62=$5
failures=0

# expect_usage <expected stderr fragment> <command...>
expect_usage() {
  want=$1
  shift
  out=$("$@" 2>&1)
  code=$?
  if [ "$code" -ne 2 ] || ! printf '%s\n' "$out" | grep -qF -- "$want"; then
    echo "FAIL (exit $code): $*"
    printf '%s\n' "$out" | sed 's/^/  | /'
    failures=$((failures + 1))
  fi
}

expect_usage "bad --threads 'abc'" "$cli" mine x.cmv --threads abc
expect_usage "bad --threads '4x'" "$cli" index db.cmdb --threads 4x x.cmv
expect_usage "bad --seed '-1'" "$cli" generate out.cmv --seed -1
expect_usage "bad --level 'two'" "$cli" skim x.cmv --level two
expect_usage "bad --clearance ''" "$cli" browse --clearance "" x.cmv
expect_usage "bad --shards '1e3'" "$cli" index db.cmdb --shards 1e3 x.cmv
expect_usage "bad --shard 'k'" "$cli" compact db.cmdb --shard k
expect_usage "bad --threads 'abc'" "$cli" repair db.cmdb --threads abc
expect_usage "bad --port 'abc'" "$daemon" --port abc
expect_usage "bad --port '70000'" "$daemon" --port 70000
expect_usage "bad --cache-bytes '-5'" "$daemon" --cache-bytes -5
expect_usage "bad every:N 'x'" "$daemon" --chaos server.accept.reset=every:x
expect_usage "bad --port 'abc'" "$client" --port abc health
expect_usage "bad --deny 'node'" "$client" --port 1 --deny node health
expect_usage "bad --idle-conns 'abc'" "$server_load" out.json 0 0 --idle-conns abc
expect_usage "bad --pipeline-depth 'xyz'" "$server_load" out.json 0 0 --pipeline-depth xyz
expect_usage "bad clients 'many'" "$server_load" out.json many
expect_usage "bad requests-per-client '8x'" "$server_load" out.json 2 8x
expect_usage "bad max-copies 'lots'" "$sec62" lots

if [ "$failures" -ne 0 ]; then
  echo "$failures case(s) failed"
  exit 1
fi
echo "all strict-flag cases exit 2 with a parse error"

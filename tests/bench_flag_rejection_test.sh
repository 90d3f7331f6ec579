#!/bin/sh
# Parse-time flag rejection for the bench and example command lines: every
# case below must exit 2 before anything runs (nothing on stdout), instead of
# running with a flag ignored, crashing mid-run or running the default sweep.
#
# Usage: bench_flag_rejection_test.sh <bench binary dir> <example binary dir>
bin_dir=$1
examples_dir=$2
probe_dir=$(mktemp -d)
trap 'rm -rf "$probe_dir"' EXIT
fail=0
while read -r bench args; do
  case $bench in '' | '#'*) continue ;; esac
  exe=$bin_dir/$bench
  [ -x "$exe" ] || exe=$examples_dir/$bench
  status=0
  # A case that parses would start a whole sweep; the timeout bounds it.
  out=$(timeout 60 "$exe" $args 2>/dev/null) || status=$?
  if [ "$status" -ne 2 ] || [ -n "$out" ]; then
    echo "FAIL: '$bench $args' exited $status${out:+ after printing a run}"
    fail=1
  fi
done <<EOF
# Unknown flag, missing value, malformed value.
fig03_scenario1_runtimes --rep 5
fig03_scenario1_runtimes --reps
fig03_scenario1_runtimes --jobs abc
# The shared flags' one range, in every bench.
fig03_scenario1_runtimes --scale -1
fig03_scenario1_runtimes --scale 0
fig03_scenario1_runtimes --scale nan
fig03_scenario1_runtimes --scale 0.03125 --reps 0
ablation_comms --scale 0.03125 --reps 0
fig04_scenario1_usage --jobs 5000
fig_cluster_scaling --scale 17
fig_fleet_scaling --reps 1001
ablation_lending --seed -1
# A modifier flag without the flag it modifies.
fig03_scenario1_runtimes --stale-threshold 3
fig03_scenario1_runtimes --comm-policy drop-oldest
fig03_scenario1_runtimes --comm-policy drop-newest
fig03_scenario1_runtimes --compress-min-ratio 2.5
fig03_scenario1_runtimes --compress-max-ratio 6
fig03_scenario1_runtimes --comm-queue 2 --comm-policy backpressure
fig03_scenario1_runtimes --trace-cats tmem
# Deleted modes: the adaptive sampling interval, the skip stale mode and the
# compressed-tier eviction mode (no figure bench stores an ephemeral page).
fig03_scenario1_runtimes --adaptive-interval
fig03_scenario1_runtimes --stale-mode skip
fig03_scenario1_runtimes --compressed-evict drop
fig03_scenario1_runtimes --compressed-bytes 4096 --compressed-evict demote
# A flag the bench does not read.
ablation_dedup --trace-out $probe_dir/x.json
ablation_interval --jobs 4
ext_policies --comm-loss 0.1
# --csv into a missing directory.
fig03_scenario1_runtimes --csv does/not/exist
fig_fleet_scaling --csv does/not/exist
fig_cluster_scaling --csv does/not/exist
ablation_lending --csv does/not/exist
# The lend-plane flags need lending on; --trace-sample needs --trace-out.
fig_fleet_scaling --fleet-no-lending --fleet-lend-cache 64 --fleet-lend-loss 0.5 --trace-sample 8
fig_fleet_scaling --fleet-no-lending --fleet-lend-cache 64
fig_fleet_scaling --fleet-no-lending --fleet-lend-rtt-x 4
fig_fleet_scaling --fleet-no-lending --fleet-lend-loss 0.5
fig_fleet_scaling --fleet-no-lending --fleet-lend-reorder 0.1
fig_fleet_scaling --fleet-no-lending --fleet-lend-outage-from-s 1 --fleet-lend-outage-dur-s 1
fig_fleet_scaling --trace-sample 8
# --fleet-resync needs delta cells; global policy specs are checked.
fig_fleet_scaling --fleet-encoding full --fleet-resync 4
fig_fleet_scaling --fleet-policy bogus
fig_fleet_scaling --fleet-policy global-smart:2x
fig_cluster_scaling --cluster-policy bogus
fig_cluster_scaling --cluster-policy global-smart:25abc
fig_cluster_scaling --cluster-policy global-smart:nan
# A 1-node sweep runs no rack, so the rack knobs need a cell of 2+ nodes;
# the plain single-node flag is gone (that run is --nodes 1).
fig_cluster_scaling --nodes 1 --cluster-interval-x 7
fig_cluster_scaling --nodes 1 --cluster-latency-x 3
fig_cluster_scaling --nodes 1 --cluster-policy global-static
fig_cluster_scaling --nodes 1 --cluster-no-lending
fig_cluster_scaling --single
# The scenario explorer parses its numbers as the benches do.
scenario_explorer --scale abc
scenario_explorer --scale 0
scenario_explorer --seed -5
scenario_explorer --seed 5x
scenario_explorer --scenario bogus
scenario_explorer --policy smart:2x
EOF
exit $fail

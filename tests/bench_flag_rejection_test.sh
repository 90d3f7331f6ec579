#!/bin/sh
# Parse-time flag rejection for the bench command line: every case below must
# exit 2 before anything runs (nothing on stdout), instead of running with a
# flag ignored, crashing mid-run or running the default sweep.
#
# Usage: bench_flag_rejection_test.sh <directory holding the bench binaries>
bin_dir=$1
probe_dir=$(mktemp -d)
trap 'rm -rf "$probe_dir"' EXIT
fail=0
while read -r bench args; do
  case $bench in '' | '#'*) continue ;; esac
  status=0
  # A case that parses would start a whole sweep; the timeout bounds it.
  out=$(timeout 60 "$bin_dir/$bench" $args 2>/dev/null) || status=$?
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
fig03_scenario1_runtimes --compressed-evict drop
fig03_scenario1_runtimes --comm-queue 2 --comm-policy backpressure
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
fig_cluster_scaling --cluster-policy bogus
# --single runs one node, so it excludes --nodes.
fig_cluster_scaling --single --nodes 4 --cluster-no-lending --cluster-interval-x 7
EOF
exit $fail

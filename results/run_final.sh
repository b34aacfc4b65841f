#!/bin/sh
cd /root/repo/results
for f in fig2_scale_network fig3_scale_service_rate fig4_scale_estimators fig5_scale_lp fig6_throughput fig7_response_time tables_config ext_hierarchical ext_heterogeneity ext_path_search ablation_suppression ablation_tuner ablation_topology ablation_replication; do
  SCAL_BENCH_CSV=/root/repo/results /root/repo/build/bench/$f > /root/repo/results/$f.txt 2>&1
  echo "done $f $(date +%H:%M:%S)"
done

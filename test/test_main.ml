let () =
  Alcotest.run "dcache"
    [
      ("util", T_util.suite);
      ("signature", T_sig.suite);
      ("storage", T_storage.suite);
      ("fs", T_fs.suite @ T_fs.fsck_suite);
      ("cred", T_cred.suite);
      ("vfs", T_vfs.suite @ T_vfs.path_suite);
      ("core", T_core.suite @ T_core.extra_suite @ T_core.chroot_suite @ T_core.dnlc_suite @ T_core.dlht_suite @ T_core.chunked_mutation_suite @ T_core.refill_suite);
      ("alloc", T_alloc.suite);
      ("syscalls", T_syscalls.suite @ T_syscalls.at_family_suite @ T_syscalls.procfs_suite @ T_syscalls.path_stats_suite);
      ("procfs", T_procfs.suite);
      ("trace", T_trace.suite);
      ("netfs", T_netfs.suite);
      ("fault", T_fault.suite);
      ("dlfs", T_dlfs.suite);
      ("equivalence", T_equiv.suite);
      ("concurrency", T_concurrency.suite);
      ("workloads", T_workloads.suite);
    ]

(* Test entry point: one Alcotest run over every module's suites. *)

let () =
  Alcotest.run "iocov"
    (Test_util.suites @ Test_regex.suites @ Test_syscall.suites @ Test_vfs.suites
     @ Test_crash.suites @ Test_crash_engine.suites @ Test_trace.suites @ Test_core.suites @ Test_suites.suites
     @ Test_bugstudy.suites @ Test_integration.suites @ Test_extensions.suites
     @ Test_model_based.suites @ Test_obs.suites @ Test_par.suites
     @ Test_dense.suites @ Test_robust.suites @ Test_pipe.suites
     @ Test_flight.suites @ Test_serve.suites @ Test_config.suites @ Test_live.suites
     @ Test_vfs_diff.suites @ Test_golden.suites)

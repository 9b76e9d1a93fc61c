(* Crash-consistency model tests: the durability semantics of sync,
   fsync, and power-cut recovery, including the injectable
   crash-consistency fault. *)

open Iocov_syscall
open Iocov_vfs

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ret_fd = function
  | Model.Ret fd -> fd
  | Model.Err e -> Alcotest.failf "expected fd, got %s" (Errno.to_string e)

let creat_rw = Open_flags.of_flags Open_flags.[ O_RDWR; O_CREAT ]
let rdonly_dir = Open_flags.of_flags Open_flags.[ O_RDONLY; O_DIRECTORY ]

let setup ?config () =
  let fs = Fs.create ?config () in
  ignore (Fs.exec fs (Model.mkdir ~mode:0o755 "/d"));
  (match Fs.exec_aux fs Fs.Sync with Ok _ -> () | Error _ -> Alcotest.fail "sync");
  fs

let write_file fs path size =
  let fd = ret_fd (Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw path)) in
  (match Fs.exec fs (Model.write ~fd ~count:size ()) with
   | Model.Ret n when n = size -> ()
   | _ -> Alcotest.fail "write");
  fd

let fsync_dir fs dir =
  let dfd = ret_fd (Fs.exec fs (Model.open_ ~flags:rdonly_dir dir)) in
  ignore (Fs.exec_aux fs (Fs.Fsync dfd));
  ignore (Fs.exec fs (Model.close dfd))

let test_unsynced_lost () =
  let fs = setup () in
  let fd = write_file fs "/d/v" 4096 in
  ignore (Fs.exec fs (Model.close fd));
  ignore (Fs.exec_aux fs Fs.Crash);
  check_bool "volatile file lost" false (Fs.exists fs "/d/v")

let test_sync_persists_everything () =
  let fs = setup () in
  let fd = write_file fs "/d/s" 4096 in
  ignore (Fs.exec fs (Model.close fd));
  let sum = Result.get_ok (Fs.checksum fs "/d/s") in
  ignore (Fs.exec_aux fs Fs.Sync);
  ignore (Fs.exec_aux fs Fs.Crash);
  check_bool "file survives" true (Fs.exists fs "/d/s");
  check_int "content identical" sum (Result.get_ok (Fs.checksum fs "/d/s"))

let test_fsync_without_dir_loses_name () =
  let fs = setup () in
  let fd = write_file fs "/d/f" 4096 in
  ignore (Fs.exec_aux fs (Fs.Fsync fd));
  ignore (Fs.exec fs (Model.close fd));
  ignore (Fs.exec_aux fs Fs.Crash);
  (* the inode was durable but no durable directory entry names it *)
  check_bool "name lost" false (Fs.exists fs "/d/f")

let test_fsync_with_dir_keeps_file () =
  let fs = setup () in
  let fd = write_file fs "/d/g" 4096 in
  ignore (Fs.exec_aux fs (Fs.Fsync fd));
  ignore (Fs.exec fs (Model.close fd));
  let sum = Result.get_ok (Fs.checksum fs "/d/g") in
  fsync_dir fs "/d";
  ignore (Fs.exec_aux fs Fs.Crash);
  check_bool "file survives" true (Fs.exists fs "/d/g");
  check_int "content identical" sum (Result.get_ok (Fs.checksum fs "/d/g"))

let test_dir_entry_without_inode_recovers_empty () =
  let fs = setup () in
  let fd = write_file fs "/d/h" 4096 in
  ignore (Fs.exec fs (Model.close fd));
  (* persist only the NAME (dir fsync), never the file's data *)
  fsync_dir fs "/d";
  ignore (Fs.exec_aux fs Fs.Crash);
  check_bool "name survives" true (Fs.exists fs "/d/h");
  check_int "data lost: recovered empty" 0 (Result.get_ok (Fs.stat fs "/d/h")).Fs.st_size

let test_overwrite_after_sync_rolls_back () =
  let fs = setup () in
  let fd = write_file fs "/d/o" 1000 in
  ignore (Fs.exec fs (Model.close fd));
  ignore (Fs.exec_aux fs Fs.Sync);
  let durable_sum = Result.get_ok (Fs.checksum fs "/d/o") in
  (* volatile overwrite *)
  let fd = ret_fd (Fs.exec fs (Model.open_ ~flags:(Open_flags.of_flags Open_flags.[ O_RDWR ]) "/d/o")) in
  (match Fs.exec fs (Model.write ~fd ~count:1000 ()) with Model.Ret _ -> () | _ -> Alcotest.fail "w");
  ignore (Fs.exec fs (Model.close fd));
  ignore (Fs.exec_aux fs Fs.Crash);
  check_int "rolled back" durable_sum (Result.get_ok (Fs.checksum fs "/d/o"))

let test_crash_clears_fd_table () =
  let fs = setup () in
  let fd = write_file fs "/d/x" 10 in
  ignore (Fs.exec_aux fs Fs.Crash);
  check_bool "fd dead after crash" true
    (match Fs.exec fs (Model.read ~fd ~count:1 ()) with
     | Model.Err Errno.EBADF -> true
     | _ -> false);
  check_int "no open fds" 0 (Fs.open_fd_count fs)

let test_crash_accounting_consistent () =
  let fs = setup () in
  for i = 1 to 5 do
    let fd = write_file fs (Printf.sprintf "/d/f%d" i) (i * 10_000) in
    ignore (Fs.exec fs (Model.close fd))
  done;
  ignore (Fs.exec_aux fs Fs.Sync);
  let used_before = Fs.used_blocks fs in
  for i = 6 to 9 do
    let fd = write_file fs (Printf.sprintf "/d/g%d" i) 50_000 in
    ignore (Fs.exec fs (Model.close fd))
  done;
  ignore (Fs.exec_aux fs Fs.Crash);
  check_int "accounting restored" used_before (Fs.used_blocks fs)

let test_double_crash_idempotent () =
  let fs = setup () in
  let fd = write_file fs "/d/k" 100 in
  ignore (Fs.exec fs (Model.close fd));
  ignore (Fs.exec_aux fs Fs.Sync);
  ignore (Fs.exec_aux fs Fs.Crash);
  let sum1 = Result.get_ok (Fs.checksum fs "/d/k") in
  ignore (Fs.exec_aux fs Fs.Crash);
  check_int "second crash no-op" sum1 (Result.get_ok (Fs.checksum fs "/d/k"))

let test_fsync_skips_data_fault () =
  let config = Config.with_faults [ Fault.Fsync_skips_data ] Config.default in
  let fs = setup ~config () in
  let fd = write_file fs "/d/buggy" 8192 in
  let sum_before = Result.get_ok (Fs.checksum fs "/d/buggy") in
  ignore (Fs.exec_aux fs (Fs.Fsync fd));
  ignore (Fs.exec fs (Model.close fd));
  fsync_dir fs "/d";
  ignore (Fs.exec_aux fs Fs.Crash);
  check_bool "file present (metadata persisted)" true (Fs.exists fs "/d/buggy");
  check_int "size persisted" 8192 (Result.get_ok (Fs.stat fs "/d/buggy")).Fs.st_size;
  check_bool "content lost (the bug)" true
    (Result.get_ok (Fs.checksum fs "/d/buggy") <> sum_before)

let test_mutations_after_crash_work () =
  let fs = setup () in
  ignore (Fs.exec_aux fs Fs.Crash);
  let fd = write_file fs "/d/new" 123 in
  ignore (Fs.exec fs (Model.close fd));
  check_bool "fs usable after crash" true (Fs.exists fs "/d/new")

(* Property: after sync-then-crash, every surviving regular file's
   checksum equals its pre-crash value, for random workloads. *)
let crash_durability_prop =
  QCheck.Test.make ~name:"sync+crash preserves all synced content" ~count:60
    QCheck.(small_list (pair (int_range 1 6) (int_range 0 20_000)))
    (fun files ->
      let fs = setup () in
      List.iteri
        (fun i (slot, size) ->
          let path = Printf.sprintf "/d/p%d_%d" slot i in
          let fd =
            match Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw path) with
            | Model.Ret fd -> fd
            | Model.Err _ -> -1
          in
          if fd >= 0 then begin
            ignore (Fs.exec fs (Model.write ~fd ~count:size ()));
            ignore (Fs.exec fs (Model.close fd))
          end)
        files;
      ignore (Fs.exec_aux fs Fs.Sync);
      let snapshot =
        List.filter_map
          (fun name ->
            let path = "/d/" ^ name in
            match Fs.checksum fs path with
            | Ok sum -> Some (path, sum)
            | Error _ -> None)
          (Result.get_ok (Fs.list_dir fs "/d"))
      in
      ignore (Fs.exec_aux fs Fs.Crash);
      List.for_all
        (fun (path, sum) ->
          match Fs.checksum fs path with Ok sum' -> sum = sum' | Error _ -> false)
        snapshot)

(* A descriptor open at the crash dies with it: the recovered inode has
   no opener left, so unlinking its only name frees it at once. *)
let test_crash_releases_open_inodes () =
  let fs = setup () in
  let before = Fs.free_blocks fs in
  let _fd = write_file fs "/d/o" 8192 in
  ignore (Fs.exec_aux fs Fs.Sync);
  ignore (Fs.exec_aux fs Fs.Crash);
  (match Fs.exec_aux fs (Fs.Unlink "/d/o") with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "unlink: %s" (Errno.to_string e));
  check_int "every block returned" before (Fs.free_blocks fs)

let suites =
  [ ( "vfs.crash",
      [ Alcotest.test_case "unsynced state lost" `Quick test_unsynced_lost;
        Alcotest.test_case "sync persists everything" `Quick test_sync_persists_everything;
        Alcotest.test_case "fsync alone loses the name" `Quick test_fsync_without_dir_loses_name;
        Alcotest.test_case "fsync + dir fsync keeps the file" `Quick
          test_fsync_with_dir_keeps_file;
        Alcotest.test_case "durable name, volatile data" `Quick
          test_dir_entry_without_inode_recovers_empty;
        Alcotest.test_case "volatile overwrite rolls back" `Quick
          test_overwrite_after_sync_rolls_back;
        Alcotest.test_case "crash clears fds" `Quick test_crash_clears_fd_table;
        Alcotest.test_case "crash releases open inodes" `Quick
          test_crash_releases_open_inodes;
        Alcotest.test_case "accounting restored" `Quick test_crash_accounting_consistent;
        Alcotest.test_case "double crash idempotent" `Quick test_double_crash_idempotent;
        Alcotest.test_case "Fsync_skips_data fault" `Quick test_fsync_skips_data_fault;
        Alcotest.test_case "fs usable after crash" `Quick test_mutations_after_crash_work;
        QCheck_alcotest.to_alcotest crash_durability_prop ] ) ]

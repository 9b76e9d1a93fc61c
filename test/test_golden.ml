(* Byte-identity guard for the VFS: the ledger digest, oracle-failure
   count and kept-record count of every suite at every config-lattice
   point, for one fixed seed and scale.  The table was generated from
   the list-based VFS (before the hot-path rewrite: bit-test open
   flags, in-place path resolution, incremental durable images, merged
   extent writes) and must never be regenerated to make a VFS change
   pass — any drift here means the change altered an outcome. *)

module Config = Iocov_vfs.Config
module Runner = Iocov_suites.Runner
module Ledger = Iocov_pipe.Ledger

let seed = 7
let scale = 0.05

(* suite, point, ledger digest, oracle-failure count, CRC-32 of the
   oracle-failure messages, records kept *)
let expected = {|
xfstests default 92acfbf4 0 00000000 36748
xfstests default-writeback 3669384c 12 5959aeb2 47913
xfstests default-journaled 3669384c 12 5959aeb2 47913
xfstests small 5aa310b0 541 838aae12 36748
xfstests small-writeback 5aa310b0 541 838aae12 36748
xfstests small-journaled 5aa310b0 541 838aae12 36748
xfstests tiny 96d46bcb 378 471b1f23 46744
xfstests tiny-writeback 96d46bcb 378 471b1f23 46744
xfstests tiny-journaled 96d46bcb 378 471b1f23 46744
xfstests tiny-quota 15a43066 11 d316fa65 47821
xfstests tiny-quota-writeback 15a43066 11 d316fa65 47821
xfstests tiny-quota-journaled 15a43066 11 d316fa65 47821
xfstests read-only bc7cb8f8 16079 be66df89 22802
xfstests read-only-writeback bc7cb8f8 16079 be66df89 22802
xfstests read-only-journaled bc7cb8f8 16079 be66df89 22802
xfstests no-xattr-space 94f0204d 622 e59bed42 47913
xfstests no-xattr-space-writeback 94f0204d 622 e59bed42 47913
xfstests no-xattr-space-journaled 94f0204d 622 e59bed42 47913
CrashMonkey default f78a2005 0 00000000 26247
CrashMonkey default-writeback f78a2005 0 00000000 26247
CrashMonkey default-journaled f78a2005 0 00000000 26247
CrashMonkey small f78a2005 0 00000000 26247
CrashMonkey small-writeback f78a2005 0 00000000 26247
CrashMonkey small-journaled f78a2005 0 00000000 26247
CrashMonkey tiny f78a2005 0 00000000 26247
CrashMonkey tiny-writeback f78a2005 0 00000000 26247
CrashMonkey tiny-journaled f78a2005 0 00000000 26247
CrashMonkey tiny-quota f78a2005 0 00000000 26247
CrashMonkey tiny-quota-writeback f78a2005 0 00000000 26247
CrashMonkey tiny-quota-journaled f78a2005 0 00000000 26247
CrashMonkey read-only 7d6c3c23 0 00000000 9503
CrashMonkey read-only-writeback 7d6c3c23 0 00000000 9503
CrashMonkey read-only-journaled 7d6c3c23 0 00000000 9503
CrashMonkey no-xattr-space 10d1e637 0 00000000 26247
CrashMonkey no-xattr-space-writeback 10d1e637 0 00000000 26247
CrashMonkey no-xattr-space-journaled 10d1e637 0 00000000 26247
LTP default 515e2795 0 00000000 317
LTP default-writeback 2a01d29f 2 72d14268 2356
LTP default-journaled 2a01d29f 2 72d14268 2356
LTP small a0996acf 0 00000000 314
LTP small-writeback a0996acf 0 00000000 314
LTP small-journaled a0996acf 0 00000000 314
LTP tiny 31e84a5d 0 00000000 2324
LTP tiny-writeback 31e84a5d 0 00000000 2324
LTP tiny-journaled 31e84a5d 0 00000000 2324
LTP tiny-quota 1150d7ec 1 4685bb6f 2336
LTP tiny-quota-writeback 1150d7ec 1 4685bb6f 2336
LTP tiny-quota-journaled 1150d7ec 1 4685bb6f 2336
LTP read-only 56f50ef9 1139 e2f8cd9a 1181
LTP read-only-writeback 56f50ef9 1139 e2f8cd9a 1181
LTP read-only-journaled 56f50ef9 1139 e2f8cd9a 1181
LTP no-xattr-space 34b59479 8 1e2c2de8 2353
LTP no-xattr-space-writeback 34b59479 8 1e2c2de8 2353
LTP no-xattr-space-journaled 34b59479 8 1e2c2de8 2353
|}

let render suite =
  Runner.run_lattice ~seed ~scale ~points:(Array.to_list Config.lattice) suite
  |> List.map (fun ((p : Config.point), (r : Runner.result)) ->
         Printf.sprintf "%s %s %s %d %08x %d\n" (Runner.suite_name suite)
           p.Config.pt_name (Ledger.digest r.Runner.coverage)
           (List.length r.Runner.failures)
           (Iocov_util.Crc32.string (String.concat "\n" r.Runner.failures))
           r.Runner.events_kept)
  |> String.concat ""

let test_lattice_digests () =
  let actual =
    "\n" ^ String.concat "" (List.map render [ Runner.Xfstests; Runner.Crashmonkey; Runner.Ltp ])
  in
  Alcotest.(check string) "suite x lattice point digests" expected actual

let suites =
  [ ( "golden",
      [ Alcotest.test_case "lattice digests of all three suites" `Quick
          test_lattice_digests ] ) ]

(* Differential tests for the VFS hot path.  The VFS resolves paths by
   scanning the string in place, inserts extent runs in one ordered
   pass, and shares unchanged nodes between live state and durable
   image.  The code each of those replaced lives on here, and only here,
   as the oracle:

   - the component-list resolver (split, filter, one [Result] per level)
     against [Fs.resolve] / [Fs.resolve_parent] on generated paths;
   - carve-then-sort against [Node.write_extents] on random writes;
   - a deep copy of every inode at each sync (of one at each fsync)
     against what [Crash] recovers, on random programs. *)

open Iocov_syscall
open Iocov_vfs

let check_string = Alcotest.(check string)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Errno.to_string e)

let creat_rw = Open_flags.of_flags Open_flags.[ O_RDWR; O_CREAT ]
let rdonly_dir = Open_flags.of_flags Open_flags.[ O_RDONLY; O_DIRECTORY ]

(* --- path resolution --- *)

module Old_resolver = struct
  type env = { fs : Fs.t; cfg : Config.t; uid : int; gid : int; root : int; cwd : int }

  let ( let* ) = Result.bind

  let parse ~max_name_len ~max_path_len s =
    if String.length s = 0 then Error Errno.ENOENT
    else if String.length s > max_path_len then Error Errno.ENAMETOOLONG
    else begin
      let absolute = s.[0] = '/' in
      let trailing_slash = String.length s > 1 && s.[String.length s - 1] = '/' in
      let components = List.filter (fun c -> c <> "") (String.split_on_char '/' s) in
      if List.exists (fun c -> String.length c > max_name_len) components then
        Error Errno.ENAMETOOLONG
      else Ok (absolute, components, trailing_slash)
    end

  let parse_path r s =
    parse ~max_name_len:r.cfg.Config.max_name_len ~max_path_len:r.cfg.Config.max_path_len s

  let get r ino = Option.get (Fs.inode r.fs ino)

  let may_exec r (node : Node.t) =
    r.uid = 0
    || Mode.executable_by node.Node.mode
         (if r.uid = node.Node.uid then `Owner
          else if r.gid = node.Node.gid then `Group
          else `Other)

  let rec step r ino comps ~follow_last ~hops =
    match comps with
    | [] -> Ok ino
    | name :: rest ->
      let node = get r ino in
      (match node.Node.body with
       | Node.Dir entries ->
         if not (may_exec r node) then Error Errno.EACCES
         else begin
           match Hashtbl.find_opt entries name with
           | None -> Error Errno.ENOENT
           | Some child_ino ->
             let child = get r child_ino in
             (match child.Node.body with
              | Node.Symlink target when rest <> [] || follow_last ->
                if hops >= r.cfg.Config.max_symlink_depth then Error Errno.ELOOP
                else
                  let* absolute, components, _ = parse_path r target in
                  let start = if absolute then r.root else ino in
                  step r start (components @ rest) ~follow_last ~hops:(hops + 1)
              | _ -> step r child_ino rest ~follow_last ~hops)
         end
       | Node.Symlink _ -> Error Errno.ELOOP
       | _ -> Error Errno.ENOTDIR)

  let resolve ~follow_last r path =
    let* absolute, components, trailing_slash = parse_path r path in
    let start = if absolute then r.root else r.cwd in
    let* ino = step r start components ~follow_last ~hops:0 in
    if trailing_slash && not (Node.is_dir (get r ino)) then Error Errno.ENOTDIR else Ok ino

  let resolve_parent r path =
    let* absolute, components, _ = parse_path r path in
    let start = if absolute then r.root else r.cwd in
    match List.rev components with
    | [] -> Ok (r.root, ".")
    | last :: rev_prefix ->
      let* dir_ino = step r start (List.rev rev_prefix) ~follow_last:true ~hops:0 in
      let dir = get r dir_ino in
      if not (Node.is_dir dir) then Error Errno.ENOTDIR
      else if not (may_exec r dir) then Error Errno.EACCES
      else Ok (dir_ino, last)
end

(* A namespace with every lookup shape: nested and locked directories,
   absolute, relative, dangling, self-looping and empty symlinks, a
   chain c0 -> c1 -> ... -> c9 -> /a whose hop count from [cI] is
   [10 - I] (below, at and past every depth limit used here), and names
   one short of and exactly at the name limit. *)
let build_tree (cfg : Config.t) =
  let fs = Fs.create ~config:cfg () in
  Fs.set_read_only fs false;
  let must what = function
    | Model.Ret _ -> ()
    | Model.Err e -> Alcotest.failf "%s: %s" what (Errno.to_string e)
  in
  let aux what a = ignore (ok_or_fail what (Fs.exec_aux fs a)) in
  List.iter
    (fun (d, mode) -> must d (Fs.exec fs (Model.mkdir ~mode d)))
    [ ("/a", 0o755); ("/a/b", 0o755); ("/a/b/c", 0o755); ("/lk", 0o700); ("/lk/in", 0o755) ];
  List.iter
    (fun f ->
      match Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw f) with
      | Model.Ret fd -> ignore (Fs.exec fs (Model.close fd))
      | Model.Err e -> Alcotest.failf "%s: %s" f (Errno.to_string e))
    [ "/a/f"; "/a/b/g" ];
  List.iter
    (fun (target, link) -> aux link (Fs.Symlink (target, link)))
    [ ("/a", "/l1"); ("b", "/a/rl"); ("../a/b", "/a/up"); ("/a/f", "/lf"); ("/nope", "/dg");
      ("/lp", "/lp"); ("", "/em"); ("/", "/sl"); ("/a/", "/td"); ("f/", "/a/fs") ];
  for i = 0 to 9 do
    let target = if i = 9 then "/a" else Printf.sprintf "/c%d" (i + 1) in
    aux "chain" (Fs.Symlink (target, Printf.sprintf "/c%d" i))
  done;
  let m = cfg.Config.max_name_len in
  must "name m-1" (Fs.exec fs (Model.mkdir ~mode:0o755 ("/a/" ^ String.make (m - 1) 'n')));
  must "name m" (Fs.exec fs (Model.mkdir ~mode:0o755 ("/a/" ^ String.make m 'm')));
  fs

(* "/a" ^ "/." x k ^ ("/f" or "//f"): a valid path of any length >= 4. *)
let padded_path len =
  let k = (len - 4) / 2 in
  let middle = String.concat "" (List.init k (fun _ -> "/.")) in
  if (len - 4) mod 2 = 0 then "/a" ^ middle ^ "/f" else "/a" ^ middle ^ "//f"

let boundary_paths (cfg : Config.t) =
  let m = cfg.Config.max_name_len and p = cfg.Config.max_path_len in
  let names = [ String.make (m - 1) 'n'; String.make m 'm'; String.make (m + 1) 'o' ] in
  List.concat_map (fun n -> [ "/a/" ^ n; "/a/" ^ n ^ "/"; n; "/a/" ^ n ^ "/x" ]) names
  @ List.map padded_path [ p - 1; p; p + 1 ]
  @ List.init 10 (fun i -> Printf.sprintf "/c%d/b" i)
  @ List.init 10 (fun i -> Printf.sprintf "/c%d" i)
  @ [ ""; "/"; "//"; "///a"; "."; ".."; "./"; "a"; "a/"; "/a/f/"; "/a/f/x"; "/lf/"; "/lf/x";
      "/dg"; "/dg/"; "/lp"; "/lp/x"; "/em"; "/em/x"; "/sl/a"; "/td/b"; "/a/fs"; "/a/fs/x";
      "/a/rl/c"; "/a/up/c"; "/l1/../a"; "/lk/in"; "/lk/in/"; "/lk/x"; "/lk" ]

let component_pool (cfg : Config.t) =
  let m = cfg.Config.max_name_len in
  [| "a"; "b"; "c"; "f"; "g"; "."; ".."; ""; "l1"; "rl"; "up"; "lf"; "dg"; "lp"; "em";
     "sl"; "td"; "fs"; "c0"; "c2"; "c3"; "c7"; "c9"; "nope"; "lk"; "in";
     String.make (m - 1) 'n'; String.make m 'm'; String.make (m + 1) 'o' |]

let random_path rng pool =
  let k = Random.State.int rng 7 in
  let comps = List.init k (fun _ -> pool.(Random.State.int rng (Array.length pool))) in
  let body = String.concat "/" comps in
  let lead = if Random.State.int rng 10 < 7 then "/" else "" in
  let trail = if Random.State.int rng 10 < 2 then "/" else "" in
  lead ^ body ^ trail

let show_ino = function Ok i -> string_of_int i | Error e -> Errno.to_string e

let show_parent = function
  | Ok (i, n) -> Printf.sprintf "%d %S" i n
  | Error e -> Errno.to_string e

let resolver_configs =
  Array.to_list (Array.map (fun (p : Config.point) -> p.Config.pt_config) Config.lattice)
  @ List.map
      (fun (max_name_len, max_path_len, max_symlink_depth) ->
        { Config.default with max_name_len; max_path_len; max_symlink_depth })
      [ (4, 40, 2); (3, 24, 0); (5, 64, 9) ]

let test_resolver_differential () =
  let rng = Random.State.make [| 14 |] in
  List.iter
    (fun (cfg : Config.t) ->
      let fs = build_tree cfg in
      let pool = component_pool cfg in
      let paths = boundary_paths cfg @ List.init 1500 (fun _ -> random_path rng pool) in
      List.iter
        (fun (cwd, (uid, gid)) ->
          Fs.set_credentials fs ~uid:0 ~gid:0;
          ignore (Fs.exec fs (Model.chdir (Model.Path cwd)));
          Fs.set_credentials fs ~uid ~gid;
          let r =
            { Old_resolver.fs; cfg; uid; gid; root = 2;
              cwd = ok_or_fail cwd (Fs.resolve fs cwd) }
          in
          List.iter
            (fun path ->
              let tag what = Printf.sprintf "%s %S (cwd %s, uid %d)" what path cwd uid in
              List.iter
                (fun follow_last ->
                  check_string (tag (if follow_last then "resolve" else "resolve nofollow"))
                    (show_ino (Old_resolver.resolve ~follow_last r path))
                    (show_ino (Fs.resolve ~follow_last fs path)))
                [ true; false ];
              check_string (tag "resolve_parent")
                (show_parent (Old_resolver.resolve_parent r path))
                (show_parent (Fs.resolve_parent fs path)))
            paths)
        [ ("/", (0, 0)); ("/a/b", (0, 0)); ("/", (1000, 1000)); ("/a/b", (1000, 1000)) ])
    resolver_configs

(* --- extent writes --- *)

module Old_extents = struct
  let ext_end (e : Node.extent) = e.Node.off + e.Node.len

  let carve extents ~off ~len =
    let stop = off + len in
    List.concat_map
      (fun (e : Node.extent) ->
        if ext_end e <= off || e.Node.off >= stop then [ e ]
        else begin
          let left = if e.Node.off < off then [ { e with Node.len = off - e.Node.off } ] else [] in
          let right =
            if ext_end e > stop then
              [ { Node.off = stop; len = ext_end e - stop; fill = e.Node.fill } ]
            else []
          in
          left @ right
        end)
      extents

  let write_extents extents ~off ~len ~fill =
    if len = 0 then extents
    else
      List.sort
        (fun (a : Node.extent) b -> compare a.Node.off b.Node.off)
        ({ Node.off; len; fill } :: carve extents ~off ~len)
end

let write_extents_prop =
  let op_gen =
    QCheck.Gen.(
      frequency
        [ ( 6,
            map3
              (fun off len fill -> `Write (off, len, fill))
              (oneof [ int_range 0 96; int_range 0 1_000_000 ])
              (oneof [ int_range 0 40; int_range 0 100_000 ])
              (map Char.chr (int_range 97 122)) );
          (1, map (fun size -> `Truncate size) (int_range 0 128)) ])
  in
  QCheck.Test.make ~name:"write_extents = carve then sort" ~count:500
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) op_gen))
    (fun ops ->
      let _ =
        List.fold_left
          (fun extents op ->
            match op with
            | `Write (off, len, fill) ->
              let next = Node.write_extents extents ~off ~len ~fill in
              if next <> Old_extents.write_extents extents ~off ~len ~fill then
                QCheck.Test.fail_reportf "diverged at write (%d, %d, %c)" off len fill;
              next
            | `Truncate size -> Node.truncate_extents extents ~size)
          [] ops
      in
      true)

(* --- durable image --- *)

(* The durable image as a deep copy per inode: of all of them at each
   sync, of the fsynced one at each fsync (keeping the old extents when
   the fsync drops data). *)
module Full_copy_image = struct
  let copy (n : Node.t) =
    let body =
      match n.Node.body with
      | Node.Reg { extents } -> Node.Reg { extents }
      | Node.Dir entries -> Node.Dir (Hashtbl.copy entries)
      | b -> b
    in
    { n with Node.body }

  let sync image fs ~max_ino =
    Hashtbl.reset image;
    for ino = 2 to max_ino do
      Option.iter (fun n -> Hashtbl.replace image ino (copy n)) (Fs.inode fs ino)
    done

  let fsync image fs ino ~skips_data =
    let n = Option.get (Fs.inode fs ino) in
    let c = copy n in
    (if skips_data && Node.is_reg n then
       match (Hashtbl.find_opt image ino, c.Node.body) with
       | Some { Node.body = Node.Reg old; _ }, Node.Reg fresh -> fresh.extents <- old.extents
       | _, Node.Reg fresh -> fresh.extents <- []
       | _ -> ());
    Hashtbl.replace image ino c
end

(* Canonical text of the namespace reachable from the root, given how
   to find an inode (an unknown inode reads as recovery's empty file),
   and the content checksum of every regular file by path. *)
let describe find =
  let buf = Buffer.create 1024 in
  let regs = ref [] in
  let seen = Hashtbl.create 16 in
  let rec go path ino =
    let n =
      match find ino with
      | Some n -> n
      | None ->
        Node.create ~ino ~body:(Node.Reg { extents = [] }) ~mode:0o644 ~uid:0 ~gid:0 ~now:0
    in
    Printf.bprintf buf "%s ino=%d mode=%o uid=%d gid=%d nlink=%d size=%d xattrs=%s" path ino
      n.Node.mode n.Node.uid n.Node.gid n.Node.nlink n.Node.size
      (String.concat ","
         (List.map
            (fun (k, (size, fill)) -> Printf.sprintf "%s:%d:%c" k size fill)
            (Node.Xattrs.bindings n.Node.xattrs)));
    match n.Node.body with
    | Node.Reg _ ->
      regs := (path, Node.content_checksum n) :: !regs;
      Printf.bprintf buf " reg %d\n" (Node.content_checksum n)
    | Node.Symlink s -> Printf.bprintf buf " symlink %S\n" s
    | Node.Fifo -> Buffer.add_string buf " fifo\n"
    | Node.Device _ -> Buffer.add_string buf " device\n"
    | Node.Dir entries ->
      let names = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) entries []) in
      Printf.bprintf buf " dir %s\n"
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) names));
      if not (Hashtbl.mem seen ino) then begin
        Hashtbl.add seen ino ();
        List.iter
          (fun (k, v) -> if k <> "." && k <> ".." then go (Filename.concat path k) v)
          names
      end
  in
  go "/" 2;
  (Buffer.contents buf, List.rev !regs)

let path_pool = [| "/d"; "/d/f"; "/d/g"; "/f"; "/g"; "/e"; "/e/h"; "/d/e"; "/d/e/f" |]

(* One random program: after every crash, and at its end, what [Crash]
   recovered must read exactly as the full-copy image says. *)
let run_program rng (cfg : Config.t) ~ops =
  let fs = Fs.create ~config:cfg () in
  let skips_data = List.mem Fault.Fsync_skips_data cfg.Config.faults in
  let image = Hashtbl.create 16 in
  let max_ino = 2 + (2 * ops) + 8 in
  Full_copy_image.sync image fs ~max_ino;
  let fds = Hashtbl.create 8 in
  let pick () = path_pool.(Random.State.int rng (Array.length path_pool)) in
  let any_fd () =
    match Hashtbl.fold (fun fd ino acc -> (fd, ino) :: acc) fds [] with
    | [] -> None
    | l -> Some (List.nth (List.sort compare l) (Random.State.int rng (List.length l)))
  in
  let crash_and_compare step =
    ignore (Fs.exec_aux fs Fs.Crash);
    Hashtbl.reset fds;
    let expected, regs = describe (Hashtbl.find_opt image) in
    check_string
      (Printf.sprintf "recovered namespace after step %d" step)
      expected
      (fst (describe (Fs.inode fs)));
    (* and what a path-level oracle reads agrees with the image *)
    List.iter
      (fun (path, sum) ->
        Alcotest.(check int) ("Fs.checksum " ^ path) sum (ok_or_fail path (Fs.checksum fs path)))
      regs
  in
  let persist fd ino data_only =
    match Fs.exec_aux fs (if data_only then Fs.Fdatasync fd else Fs.Fsync fd) with
    | Ok _ -> Full_copy_image.fsync image fs ino ~skips_data
    | Error _ -> ()
  in
  for step = 1 to ops do
    match Random.State.int rng 22 with
    | 0 | 1 | 2 | 3 ->
      let path = pick () in
      (match Fs.exec fs (Model.open_ ~mode:0o644 ~flags:creat_rw path) with
       | Model.Ret fd -> Hashtbl.replace fds fd (ok_or_fail path (Fs.resolve fs path))
       | Model.Err _ -> ())
    | 4 | 5 | 6 ->
      Option.iter
        (fun (fd, _) ->
          let count = 1 + Random.State.int rng 9000 in
          ignore
            (Fs.exec fs
               (if Random.State.bool rng then
                  Model.write ~variant:Model.Sys_pwrite64 ~offset:(Random.State.int rng 20000)
                    ~fd ~count ()
                else Model.write ~fd ~count ())))
        (any_fd ())
    | 7 ->
      Option.iter
        (fun (fd, _) ->
          ignore (Fs.exec fs (Model.close fd));
          Hashtbl.remove fds fd)
        (any_fd ())
    | 8 | 9 -> ignore (Fs.exec fs (Model.mkdir ~mode:0o755 (pick ())))
    | 10 -> ignore (Fs.exec_aux fs (Fs.Unlink (pick ())))
    | 11 | 12 ->
      let a = pick () and b = pick () in
      ignore
        (Fs.exec_aux fs
           (match Random.State.int rng 4 with
            | 0 -> Fs.Rename (a, b)
            | 1 -> Fs.Link (a, b)
            | 2 -> Fs.Symlink (a, b)
            | _ -> Fs.Rmdir a))
    | 13 ->
      let target = Model.Path (pick ()) in
      ignore
        (Fs.exec fs
           (if Random.State.bool rng then Model.chmod ~target ~mode:0o600 ()
            else
              Model.setxattr ~target ~name:"user.k" ~size:(Random.State.int rng 64)
                ~flags:Xattr_flag.XATTR_ANY ()))
    | 14 ->
      ignore
        (Fs.exec fs
           (Model.truncate ~target:(Model.Path (pick ())) ~length:(Random.State.int rng 9000) ()))
    | 15 | 16 ->
      Option.iter (fun (fd, ino) -> persist fd ino (Random.State.bool rng)) (any_fd ())
    | 17 ->
      (* fsync a directory: makes its entries durable *)
      let dir = if Random.State.bool rng then "/" else pick () in
      (match Fs.exec fs (Model.open_ ~flags:rdonly_dir dir) with
       | Model.Ret dfd ->
         persist dfd (ok_or_fail dir (Fs.resolve fs dir)) false;
         ignore (Fs.exec fs (Model.close dfd))
       | Model.Err _ -> ())
    | 18 | 19 ->
      (match Fs.exec_aux fs Fs.Sync with
       | Ok _ -> Full_copy_image.sync image fs ~max_ino
       | Error _ -> ())
    | 20 -> crash_and_compare step
    | _ -> ignore (Fs.exec fs (Model.mkdir ~mode:0o755 (pick () ^ "/n")))
  done;
  crash_and_compare (ops + 1)

let test_durable_image_differential () =
  let rng = Random.State.make [| 7 |] in
  List.iter
    (fun cfg -> for _ = 1 to 100 do run_program rng cfg ~ops:60 done)
    [ Config.default;
      Config.with_faults [ Fault.Fsync_skips_data ] Config.default;
      (match Config.point_named "tiny" with
       | Some p -> p.Config.pt_config
       | None -> Alcotest.fail "tiny point");
      Config.small ]

let suites =
  [ ( "vfs.differential",
      [ Alcotest.test_case "in-place resolver = component-list resolver" `Quick
          test_resolver_differential;
        QCheck_alcotest.to_alcotest write_extents_prop;
        Alcotest.test_case "shared durable nodes = full copies" `Quick
          test_durable_image_differential ] ) ]

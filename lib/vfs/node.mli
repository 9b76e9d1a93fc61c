(** Inodes.

    Regular-file contents are stored as {e extents} — sorted,
    non-overlapping [(offset, length, fill byte)] runs — rather than raw
    bytes.  IOCov workloads write up to hundreds of MiB per call
    (Figure 3 reaches 258 MiB), so materializing buffers is pointless:
    coverage depends only on sizes, while crash-consistency oracles and
    the differential tester only need contents to be {e checkable}, which
    fill-byte extents give at O(#writes) memory. Byte ranges not covered
    by an extent read back as zeros (holes). *)

type extent = { off : int; len : int; fill : char }

module Xattrs : Map.S with type key = string
(** Extended attributes are a persistent map, so a fresh node shares the
    one empty map and a copy shares its original's until either writes. *)

type body =
  | Reg of { mutable extents : extent list }
  | Dir of (string, int) Hashtbl.t  (** name -> child inode number *)
  | Symlink of string
  | Fifo
  | Device of { driverless : bool }
      (** [driverless] devices fail [open] with [ENXIO]; others [ENODEV]
          when the class is unavailable. *)

type t = {
  ino : int;
  mutable body : body;
  mutable mode : Iocov_syscall.Mode.t;
  mutable uid : int;
  mutable gid : int;
  mutable nlink : int;
  mutable size : int;  (** logical size of a regular file or symlink *)
  mutable xattrs : (int * char) Xattrs.t;  (** name -> (value size, fill) *)
  mutable immutable_ : bool;  (** chattr +i: modifications fail [EPERM] *)
  mutable executing : bool;   (** "running binary": write-opens fail [ETXTBSY] *)
  mutable busy : bool;        (** in use by another subsystem: [EBUSY] *)
  mutable mtime : int;
  mutable ctime : int;
  mutable open_fds : int;     (** descriptors open on this inode *)
  mutable changed : bool;
      (** written since the file system's last sync: the next sync makes
          it the durable image's version of this inode *)
}

val create : ino:int -> body:body -> mode:Iocov_syscall.Mode.t -> uid:int -> gid:int -> now:int -> t

val is_dir : t -> bool
val is_reg : t -> bool
val is_symlink : t -> bool

val dir_entries : t -> (string, int) Hashtbl.t
(** The entry table of a directory node.  Raises [Invalid_argument] on a
    non-directory. *)

val copy : t -> t
(** Independent copy, which the durable image keeps when the live node
    is about to diverge from it.  The entry table is duplicated; the
    extent list and xattr map are immutable and shared.  A copy has no
    open descriptors and is not [changed]. *)

(** {2 Extent algebra} — exposed for property testing. *)

val write_extents : extent list -> off:int -> len:int -> fill:char -> extent list
(** Insert a run into a sorted, non-overlapping run list, splitting or
    trimming any overlapped older runs, in one ordered pass: the prefix
    before the run is copied and the suffix after it shared.  The result
    remains sorted and non-overlapping; zero-length writes are
    identity. *)

val truncate_extents : extent list -> size:int -> extent list
(** Drop or trim runs at or beyond [size]. *)

val segments : extent list -> off:int -> len:int -> (int * int * char option) list
(** Decompose the byte range [\[off, off+len)] into maximal runs:
    [(start, length, Some fill)] for written data, [(start, length, None)]
    for holes.  Runs are contiguous and cover the range exactly. *)

val byte_at : extent list -> int -> char
(** Effective content at one offset (['\000'] in holes). *)

val next_data : extent list -> off:int -> int option
(** Smallest data offset >= [off] ([SEEK_DATA]); [None] if only hole
    remains. *)

val next_hole : extent list -> off:int -> int
(** Smallest hole offset >= [off] ([SEEK_HOLE]); every file has a hole at
    its end, so this always answers. *)

val content_checksum : t -> int
(** Order-independent digest of a regular file's (size, extents) — equal
    checksums iff equal logical contents.  Used by crash oracles and the
    differential tester. *)

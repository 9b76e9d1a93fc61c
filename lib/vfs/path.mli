(** Pathname scanning and limits.

    The resolver walks a pathname where it lies, one component span at
    a time, instead of splitting it into a list; [stop] bounds each
    scan.  Empty components (["a//b"]) are skipped; ["."] and [".."]
    are components like any other, for the resolver to interpret. *)

val check :
  max_name_len:int -> max_path_len:int -> string -> Iocov_syscall.Errno.t option
(** Whether a pathname may be resolved at all: [Some ENOENT] for the
    empty string (POSIX), [Some ENAMETOOLONG] when the whole path or any
    component exceeds its limit, [None] when it is valid. *)

val skip_slashes : string -> int -> int -> int
(** [skip_slashes s i stop]: the first index in [\[i, stop)] that is not
    a ['/'], or [stop] — where the next component starts. *)

val component_end : string -> int -> int -> int
(** [component_end s i stop]: the first ['/'] in [\[i, stop)], or
    [stop] — where the component starting at [i] ends. *)

val last_end : string -> int -> int
(** [last_end s stop]: [stop] with trailing slashes dropped — the end
    of the final component before [stop]; 0 when only slashes remain. *)

val last_start : string -> int -> int
(** [last_start s stop]: the start of the component ending at [stop]. *)

val trailing_slash : string -> bool
(** ["a/b/"]: the final component must be a directory.  A bare ["/"]
    has none. *)

val join : string -> string -> string
(** [join dir name] concatenates with exactly one separator. *)

val basename : string -> string
(** Final component of a rendered path (["/"] for the root). *)

(** Path string handling. *)

val max_path : int
val max_name : int

type component = Cur  (** ["."] *) | Up  (** [".."] *) | Name of string

val split : string -> (component list, Dcache_types.Errno.t) result
(** Split on ['/'], dropping empty components; validates length limits.
    An empty path yields [ENOENT] per POSIX.  The tests' reference for
    {!check} and {!next}. *)

val is_absolute : string -> bool
val has_trailing_slash : string -> bool

val lexical_normalize : component list -> component list
(** Plan 9 lexical dot-dot semantics (§4.2): [a/b/../c] -> [a/c], resolved
    purely textually.  Leading [..] components are preserved. *)

(** {1 In-place cursor}

    A component is a packed span [(start lsl 31) lor stop] of byte
    offsets; reading one allocates nothing. *)

val check : string -> pos:int -> (unit, Dcache_types.Errno.t) result
(** [check path ~pos]: the verdict of [split] on [path] from byte [pos]
    on, without the list. *)

val next : lexical:bool -> string -> int -> int
(** [next ~lexical path pos]: the first component at or after [pos], or
    [-1] when none is left.  [~lexical:false] yields what {!split} lists;
    [~lexical:true] skips ["."] and each name a later [".."] cancels, with
    that [".."], yielding [lexical_normalize (split path)].  From the end
    of a yielded component, [-1] says it was the last. *)

val span_start : int -> int
val span_stop : int -> int
val span_len : int -> int
val is_dot : string -> int -> bool
val is_dotdot : string -> int -> bool

val name : string -> int -> string
(** The component as a fresh string, for a dentry's name. *)

val join : string -> string -> string
(** [join dir rel]: concatenate with exactly one separator; absolute [rel]
    wins. *)

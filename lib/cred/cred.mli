(** Process credentials, modeled on Linux [struct cred] (paper §4.1).

    A committed credential is immutable and carries a unique [id] (the analog
    of the kernel object's address).  Updates follow the kernel's
    copy-on-write convention: [prepare] yields a mutable builder, [commit]
    produces the new credential — and, as in the paper's optimization, if the
    contents did not actually change, [commit] returns the {e original}
    credential so attached caches (the PCC) keep being shared.

    Subsystems attach private per-credential data through the extensible
    [slot] type; the optimized dcache stores its prefix-check caches there. *)

type t

type slot = ..
(** Extensible per-credential storage (the analog of [cred->security]). *)

val make : ?groups:int list -> ?label:string -> uid:int -> gid:int -> unit -> t
val root : unit -> t
(** A fresh uid 0 / gid 0 credential. *)

val id : t -> int
val uid : t -> int
val gid : t -> int
val groups : t -> int list
(** Supplementary groups, sorted. *)

val label : t -> string option
(** MAC security context (e.g. an SELinux-style domain). *)

val in_group : t -> int -> bool
(** True iff [gid] matches the primary or a supplementary group. *)

(** Mutable builder for the COW update protocol. *)
module Builder : sig
  type cred := t
  type t

  val set_uid : t -> int -> unit
  val set_gid : t -> int -> unit
  val set_groups : t -> int list -> unit
  val set_label : t -> string option -> unit
  val commit : t -> cred
  (** Returns the original credential when nothing changed (sharing its
      caches); otherwise a fresh credential with a new [id]. *)
end

val prepare : t -> Builder.t

val find_slot : t -> (slot -> 'a option) -> 'a option
(** [find_slot t f] returns the first slot for which [f] is [Some _]. *)

val slots : t -> slot list
(** The raw slot list, for subsystems that scan it with their own top-level
    matcher instead of paying {!find_slot}'s [Some] wrapper per probe. *)

val add_slot : t -> slot -> unit

(** Intrusive doubly-linked lists with O(1) insert and remove.

    The kernel dcache chains dentries on several lists at once (sibling list,
    reclaim list, hash chains); each chain needs O(1) unlink given only the node.
    A ['a node] belongs to at most one [t] at a time. *)

type 'a t
type 'a node

val create : unit -> 'a t

val node : 'a -> 'a node
(** [node v] makes a detached node carrying [v]. *)

val value : 'a node -> 'a
val length : 'a t -> int
val is_empty : 'a t -> bool

val linked : 'a node -> bool
(** [linked n] is true iff [n] is currently on some list. *)

val push_front : 'a t -> 'a node -> unit
val push_back : 'a t -> 'a node -> unit

val remove : 'a t -> 'a node -> unit
(** [remove t n] unlinks [n]; no-op if [n] is detached.  [n] must not be on a
    different list. *)

val pop_front : 'a t -> 'a node option
val pop_back : 'a t -> 'a node option
val peek_front : 'a t -> 'a node option

val next : 'a node -> 'a node option
(** [next n] is the node after [n] on its list.  Returns the node's stored
    successor field (no fresh [Some]), so a [peek_front]/[next] walk is
    allocation-free — the lockless readdir path iterates children this
    way. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Front-to-back iteration.  The visited node may be removed by [f]; other
    concurrent structural changes are not supported. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val exists : ('a -> bool) -> 'a t -> bool

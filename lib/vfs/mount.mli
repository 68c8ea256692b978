(** Mounts and mount namespaces (paper §4.3).

    A mount attaches a superblock's dentry (usually its root) at a mountpoint
    dentry of another mount.  The same superblock may be mounted several
    times (mount aliases), bind mounts attach an existing subtree, and a
    namespace clone gives a process a private copy of the mount table — all
    cases the optimized dcache must stay coherent with. *)

open Types

val new_namespace : unit -> namespace

val clone_namespace : namespace -> namespace
(** Private copy of the mount tree: fresh mount objects over the same
    superblocks and dentries. *)

val mount_rootfs : namespace -> superblock -> mount
(** Install the namespace's root file system. *)

val root : namespace -> path_ref

val attach :
  namespace ->
  at:path_ref ->
  root:dentry ->
  sb:superblock ->
  readonly:bool ->
  nosuid:bool ->
  (mount, Dcache_types.Errno.t) result
(** Mount [root] (of [sb]) at [at].  [Error EBUSY] if something is already
    mounted exactly there; the mountpoint must be a directory.  Used for
    both new-fs mounts ([root = sb root]) and bind mounts ([root] is any
    cached directory dentry). *)

val detach : namespace -> mount -> (unit, Dcache_types.Errno.t) result
(** Unmount; [Error EBUSY] if other mounts are stacked on top of it. *)

val traverse_mounts : path_ref -> path_ref
(** Follow mounts downward repeatedly (a mountpoint may itself have a mount
    on the mounted root). *)

val is_mountpoint : namespace -> mount -> dentry -> bool

val follow_up : path_ref -> path_ref option
(** At a mount root, step to the mountpoint in the parent mount. *)

(** In-memory (VFS-level) inodes.

    The VFS caches each low-level inode's attributes so that the dcache hit
    path never calls into the file system — the Linux-distinctive behaviour
    the paper builds on (§2.3).  All metadata mutations must go through
    {!setattr} (or {!refresh}) to keep the cached attributes coherent. *)

type t

val make : fs:Dcache_fs.Fs_intf.t -> Dcache_types.Attr.t -> t
val fs : t -> Dcache_fs.Fs_intf.t
val ino : t -> int
val attr : t -> Dcache_types.Attr.t
(** Cached attributes; a pure memory read. *)

val kind : t -> Dcache_types.File_kind.t
val is_dir : t -> bool

val adopt_attr : t -> Dcache_types.Attr.t -> unit
(** Replace the cached attributes with ones the caller just heard from the
    file system (a lookup or getattr result).  Used by the inode cache when
    a refill re-finds an existing inode: without it a network file system's
    post-invalidation refill would resurrect the pre-mutation attribute
    snapshot.  A changed attribute record also voids the cached symlink
    target. *)

val refresh : t -> (unit, Dcache_types.Errno.t) result
(** Re-read attributes from the low-level file system. *)

val setattr : t -> Dcache_fs.Fs_intf.setattr -> (unit, Dcache_types.Errno.t) result
(** Apply changes at the file system and update the cached attributes. *)

val bump_nlink : t -> int -> unit
(** Adjust the cached link count after a VFS-level link/unlink. *)

val note_size : t -> int -> unit
(** Update the cached size after a VFS-level write/truncate. *)

val cached_symlink_target : t -> string option
(** The symlink body if some earlier resolution already read it; never
    calls into the file system. *)

val symlink_target : t -> (string, Dcache_types.Errno.t) result
(** Target of a symlink inode, cached after the first read (like Linux's
    [i_link]). *)

(** Mutually recursive VFS object types: dentries, superblocks, mounts and
    mount namespaces.

    Dentries carry the paper's [fast_dentry] extension fields inline
    (signature, resumable hash state, version counter, mount pointer, DLHT
    membership), mirroring how the prototype embeds an 88-byte fast dentry
    in [struct dentry] (§3.1, Fig. 5).  The structures are defined together
    because a mount's root is a dentry while a dentry remembers the mount it
    was last reached under (needed for direct lookup, §4.3). *)

module Dlist = Dcache_util.Dlist
module Signature = Dcache_sig.Signature

type dentry_state =
  | Positive of Inode.t
  | Partial of { p_ino : int; p_kind : Dcache_types.File_kind.t }
      (** Created from readdir results (§5.1): name and inode number are
          known but the inode has not been read; a lookup promotes it with a
          [getattr] instead of a directory scan. *)
  | Negative of Dcache_types.Errno.t
      (** Cached lookup failure: [ENOENT], or [ENOTDIR] for deep negative
          dentries under regular files (§5.2). *)

type ns_ext = ..
(** Extension slot on namespaces; the optimized dcache stores the
    per-namespace direct lookup hash table here. *)

type dentry = {
  d_id : int;  (** unique within its dcache; the analog of the dentry's kernel virtual address *)
  mutable d_name : string;
  mutable d_parent : dentry option;  (** [None] only for superblock roots *)
  mutable d_state : dentry_state;
  d_sb : superblock;
  d_children : dentry Dlist.t;
  mutable d_sibling : dentry Dlist.node option;  (** node in parent's children *)
  mutable d_lru : dentry Dlist.node option;  (** node in the dcache clock list *)
  mutable d_neg : dentry Dlist.node option;
      (** node in the per-stripe negative-dentry LRU list (§6.3); [Some] only
          while [d_state] is [Negative] *)
  mutable d_neg_gen : int;
      (** [sb_neg_gen] snapshot taken when this dentry turned negative; a
          mismatch means a per-mount negative flush has run since and the
          verdict must be re-earned (DragonFly-style generation
          invalidation) *)
  d_refcount : int Atomic.t;  (** pins: open files, cwd/root, mountpoints *)
  mutable d_hashed : bool;  (** present in the primary hash table *)
  mutable d_referenced : bool;  (** hit since the clock hand last passed; racy set is benign *)
  mutable d_complete : bool;  (** DIR_COMPLETE (§5.1) *)
  mutable d_dir_gen : int;
      (** bumped on every create/unlink/rename in this directory; readdir
          sequences compare it to detect concurrent changes (§5.1) *)
  (* fast dentry fields (§3.1) *)
  mutable d_seq : int;  (** version counter validated by PCC entries *)
  mutable d_sig : Signature.t option;  (** signature of the canonical path *)
  mutable d_hstate : Signature.state option;  (** resumable hash state *)
  mutable d_dlht_ns : namespace option;  (** the (single) DLHT holding us *)
  mutable d_dlht_next : dentry option;  (** intrusive DLHT bucket chain *)
  mutable d_dlht_prev : dentry option;
      (** chain predecessor; [None] when we head the bucket.  Intrusive links
          make DLHT insert/remove O(1) pointer splices with no per-entry cons
          cells, at the cost of the single-table invariant already implied by
          [d_dlht_ns]. *)
  mutable d_mnt : mount option;  (** mount we were most recently reached under *)
  mutable d_alias : dentry option;  (** symlink-alias redirect target (§4.2) *)
  mutable d_target_sig : Signature.t option;
      (** for a symlink dentry: the signature of its (canonicalized) target
          path, so a trailing symlink is followed on the fastpath by one
          more DLHT probe per hop — and stays coherent when intermediate
          links are replaced (§4.2) *)
}

and superblock = {
  sb_fs : Dcache_fs.Fs_intf.t;
  sb_icache : Inode.t Dcache_util.Inttbl.t;
  sb_icache_mu : Mutex.t;
      (** serializes [sb_icache]: sharded mutation sections on different
          stripes iget and iforget at once *)
  mutable sb_root : dentry option;
  mutable sb_neg_gen : int;
      (** per-mount negative-dentry generation (one superblock = one mount
          here): bumping it lazily invalidates every cached negative on this
          superblock without walking them *)
}

and mount = {
  mnt_id : int;
  mnt_sb : superblock;
  mnt_root : dentry;
  mnt_mountpoint : (mount * dentry) option;  (** where this mount is attached *)
  mnt_ns : namespace;
  mnt_readonly : bool;
  mnt_nosuid : bool;
}

and namespace = {
  ns_id : int;
  mutable ns_root : mount option;
  mutable ns_mounts : mount list;
  ns_mountpoints : mount list Dcache_util.Inttbl.t;
      (** mountpoint dentry id -> the mounts attached at that dentry, one
          per parent mount *)
  mutable ns_ext : ns_ext option;
}

(** A resolved location: dentry plus the mount it was reached through. *)
type path_ref = { mnt : mount; dentry : dentry }

let dentry_inode d =
  match d.d_state with
  | Positive inode -> Some inode
  | Partial _ | Negative _ -> None

let dentry_is_positive d =
  match d.d_state with Positive _ | Partial _ -> true | Negative _ -> false

let dentry_is_negative d =
  match d.d_state with Negative _ -> true | Positive _ | Partial _ -> false

let dentry_kind d =
  match d.d_state with
  | Positive inode -> Some (Inode.kind inode)
  | Partial { p_kind; _ } -> Some p_kind
  | Negative _ -> None

(* Matches [d_state] directly rather than going through [dentry_kind]'s
   [Some] wrapper: this predicate runs per component on the lookup fastpath,
   which must not allocate. *)
let dentry_is_dir d =
  match d.d_state with
  | Positive inode -> Dcache_types.File_kind.equal (Inode.kind inode) Dcache_types.File_kind.Directory
  | Partial { p_kind; _ } -> Dcache_types.File_kind.equal p_kind Dcache_types.File_kind.Directory
  | Negative _ -> false

(** Canonical path of a dentry within its superblock (diagnostics only; the
    kernel proper never builds path strings this way). *)
let rec dentry_path d =
  match d.d_parent with
  | None -> ""
  | Some parent ->
    let prefix = dentry_path parent in
    prefix ^ "/" ^ d.d_name

let dentry_path_display d =
  match dentry_path d with "" -> "/" | path -> path

type 'a node = {
  value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable owner : 'a t option;
}

and 'a t = {
  mutable first : 'a node option;
  mutable last : 'a node option;
  mutable size : int;
}

let create () = { first = None; last = None; size = 0 }
let node v = { value = v; prev = None; next = None; owner = None }
let value n = n.value
let length t = t.size
let is_empty t = t.size = 0
let linked n = n.owner <> None

let push_front t n =
  assert (n.owner = None);
  n.owner <- Some t;
  n.prev <- None;
  n.next <- t.first;
  (match t.first with Some f -> f.prev <- Some n | None -> t.last <- Some n);
  t.first <- Some n;
  t.size <- t.size + 1

let push_back t n =
  assert (n.owner = None);
  n.owner <- Some t;
  n.next <- None;
  n.prev <- t.last;
  (match t.last with Some l -> l.next <- Some n | None -> t.first <- Some n);
  t.last <- Some n;
  t.size <- t.size + 1

let remove t n =
  match n.owner with
  | None -> ()
  | Some owner ->
    assert (owner == t);
    (match n.prev with Some p -> p.next <- n.next | None -> t.first <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.last <- n.prev);
    n.prev <- None;
    n.next <- None;
    n.owner <- None;
    t.size <- t.size - 1

let pop_front t =
  match t.first with
  | None -> None
  | Some n ->
    remove t n;
    Some n

let pop_back t =
  match t.last with
  | None -> None
  | Some n ->
    remove t n;
    Some n

let peek_front t = t.first

(* Returns the stored option field, not a fresh [Some]: node-by-node
   traversal via [peek_front]/[next] allocates nothing, which the lockless
   cache-fed readdir path depends on. *)
let next n = n.next

let move_to_front t n =
  (match n.owner with None -> () | Some _ -> remove t n);
  push_front t n

let iter f t =
  let rec go = function
    | None -> ()
    | Some n ->
      let next = n.next in
      f n.value;
      go next
  in
  go t.first

let fold f acc t =
  let rec go acc = function
    | None -> acc
    | Some n -> go (f acc n.value) n.next
  in
  go acc t.first

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)

let exists p t =
  let rec go = function
    | None -> false
    | Some n -> p n.value || go n.next
  in
  go t.first

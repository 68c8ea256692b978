(* Tests for path signatures (multilinear hashing) and SipHash. *)

module Signature = Dcache_sig.Signature
module Siphash = Dcache_comparators.Siphash

let key = Signature.create_key ~seed:1234 ()

let test_resume_equals_whole () =
  let whole = "usr/include/gcc-x86_64-linux-gnu/sys/types.h" in
  let full = Signature.hash_string key whole in
  for cut = 0 to String.length whole do
    let a = String.sub whole 0 cut in
    let b = String.sub whole cut (String.length whole - cut) in
    let st = Signature.feed_string key Signature.empty_state a in
    let st = Signature.feed_string key st b in
    let resumed = Signature.finalize key st in
    Alcotest.(check int) "same digest" 0 (Signature.compare_full full resumed)
  done

let resume_property =
  QCheck.Test.make ~name:"feed in pieces == feed whole" ~count:500
    QCheck.(pair (string_of_size (QCheck.Gen.int_bound 64)) (list small_nat))
    (fun (s, cuts) ->
      let full = Signature.hash_string key s in
      let n = String.length s in
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
      let pieces, last =
        List.fold_left
          (fun (acc, prev) cut -> (String.sub s prev (cut - prev) :: acc, cut))
          ([], 0) cuts
      in
      let pieces = List.rev (String.sub s last (n - last) :: pieces) in
      let st =
        List.fold_left (fun st piece -> Signature.feed_string key st piece)
          Signature.empty_state pieces
      in
      Signature.compare_full full (Signature.finalize key st) = 0)

let feed_char_property =
  QCheck.Test.make ~name:"feed_char == feed_string" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_bound 32))
    (fun s ->
      let by_string = Signature.feed_string key Signature.empty_state s in
      let by_char =
        String.fold_left (fun st c -> Signature.feed_char key st c) Signature.empty_state s
      in
      Signature.compare_full
        (Signature.finalize key by_string)
        (Signature.finalize key by_char)
      = 0)

let distinct_strings_property =
  QCheck.Test.make ~name:"distinct short strings don't collide (full width)" ~count:500
    QCheck.(pair (string_of_size (QCheck.Gen.int_bound 24)) (string_of_size (QCheck.Gen.int_bound 24)))
    (fun (a, b) ->
      a = b
      || not
           (Signature.equal key (Signature.hash_string key a) (Signature.hash_string key b)))

let test_prefix_no_collision () =
  (* A path and its extension must differ even though the multilinear state
     of one is a prefix of the other. *)
  let a = Signature.hash_string key "a/b" in
  let b = Signature.hash_string key "a/b/c" in
  Alcotest.(check bool) "prefix differs" false (Signature.equal key a b)

let test_empty_vs_nonempty () =
  let e = Signature.hash_string key "" in
  let x = Signature.hash_string key "x" in
  Alcotest.(check bool) "empty differs" false (Signature.equal key e x)

let test_bucket_range_and_spread () =
  let seen = Hashtbl.create 64 in
  for i = 0 to 999 do
    let b = Signature.bucket (Signature.hash_string key (Printf.sprintf "file%d" i)) in
    Alcotest.(check bool) "range" true (b >= 0 && b < 1 lsl 22);
    Hashtbl.replace seen b ()
  done;
  (* 1000 hashes into 65536 buckets: expect almost no repeats. *)
  Alcotest.(check bool) "spread" true (Hashtbl.length seen > 950)

let test_key_dependence () =
  let key2 = Signature.create_key ~seed:99999 () in
  let same = ref 0 in
  for i = 0 to 99 do
    let s = Printf.sprintf "path/%d" i in
    if
      Signature.compare_full (Signature.hash_string key s) (Signature.hash_string key2 s)
      = 0
    then incr same
  done;
  Alcotest.(check int) "keys give different digests" 0 !same

let test_truncated_sig_collides () =
  (* With a 2-bit signature, collisions among 100 strings are certain. *)
  let tiny = Signature.create_key ~sig_bits:2 ~seed:1 () in
  let digests = List.init 100 (fun i -> Signature.hash_string tiny (string_of_int i)) in
  let collision =
    List.exists
      (fun a -> List.length (List.filter (fun b -> Signature.equal tiny a b) digests) > 1)
      digests
  in
  Alcotest.(check bool) "collision found" true collision;
  Alcotest.(check int) "sig_bits clamped" 2 (Signature.sig_bits tiny)

(* Reference compare over the signature layout: lane [a] bits 16..62, then
   lanes [b], [c] and [d] (63 bits each), first [bits] of them. *)
let lanes t =
  let h = Signature.to_hex t in
  Array.init 4 (fun i -> int_of_string ("0x" ^ String.sub h (16 * i) 16))

let layout_bit l i =
  if i < 47 then (l.(0) lsr (16 + i)) land 1
  else if i < 110 then (l.(1) lsr (i - 47)) land 1
  else if i < 173 then (l.(2) lsr (i - 110)) land 1
  else (l.(3) lsr (i - 173)) land 1

let reference_equal bits lx ly =
  let rec go i = i >= bits || (layout_bit lx i = layout_bit ly i && go (i + 1)) in
  go 0

let keys_by_bits =
  lazy
    (Array.init (Signature.max_sig_bits + 1) (fun bits ->
         Signature.create_key ~sig_bits:bits ~seed:1 ()))

(* A hashed signature and a copy with a few raw lane bits flipped (bucket
   bits included, which no compare sees): [equal] and [equal_buf] agree
   with the reference at every signature width. *)
let masked_compare_property =
  QCheck.Test.make ~name:"equal/equal_buf match a bit-by-bit reference" ~count:200
    QCheck.(
      pair
        (string_of_size (QCheck.Gen.int_bound 16))
        (list_of_size (QCheck.Gen.int_bound 3) (int_bound 251)))
    (fun (s, flips) ->
      let keys = Lazy.force keys_by_bits in
      let x = Signature.hash_string keys.(Signature.max_sig_bits) s in
      let lx = lanes x in
      let ly = Array.copy lx in
      List.iter (fun p -> ly.(p / 63) <- ly.(p / 63) lxor (1 lsl (p mod 63))) flips;
      let y = Signature.of_lanes ~a:ly.(0) ~b:ly.(1) ~c:ly.(2) ~d:ly.(3) in
      let ms = Signature.mstate () and b = Signature.buf () in
      Signature.mstate_resume ms (Signature.feed_string keys.(1) Signature.empty_state s);
      Signature.finalize_into keys.(1) ms b;
      let ok = ref true in
      for bits = 1 to Signature.max_sig_bits do
        let expect = reference_equal bits lx ly in
        if
          Signature.equal keys.(bits) x y <> expect
          || Signature.equal_buf keys.(bits) b y <> expect
        then ok := false
      done;
      !ok)

let test_grow_consistency () =
  (* Hashing a long path must agree with hashing after the key tables have
     been grown by an even longer one. *)
  let fresh = Signature.create_key ~seed:7 () in
  let long = String.make 600 'a' in
  let longer = String.make 3000 'b' in
  let before = Signature.hash_string fresh long in
  ignore (Signature.hash_string fresh longer);
  let after = Signature.hash_string fresh long in
  Alcotest.(check int) "growth stable" 0 (Signature.compare_full before after)

(* Reference vectors from the SipHash paper (key 000102..0f, messages
   00, 00 01, ...). *)
let siphash_vectors =
  [ (0, 0x726fdb47dd0e0e31L); (1, 0x74f839c593dc67fdL); (2, 0x0d6c8009d9a94f5aL);
    (3, 0x85676696d7fb7e2dL); (8, 0x93f5f5799a932462L) ]

let test_siphash_vectors () =
  let key = { Siphash.k0 = 0x0706050403020100L; k1 = 0x0F0E0D0C0B0A0908L } in
  List.iter
    (fun (len, expected) ->
      let msg = String.init len Char.chr in
      Alcotest.(check int64)
        (Printf.sprintf "siphash len %d" len)
        expected (Siphash.hash key msg))
    siphash_vectors

let test_siphash256_lanes_differ () =
  let key = Siphash.key_of_seed 42 in
  let a, b, c, d = Siphash.hash256 key "hello" in
  Alcotest.(check bool) "lanes independent" true (a <> b && b <> c && c <> d)

let suite =
  [
    Alcotest.test_case "resume equals whole" `Quick test_resume_equals_whole;
    QCheck_alcotest.to_alcotest resume_property;
    QCheck_alcotest.to_alcotest feed_char_property;
    QCheck_alcotest.to_alcotest distinct_strings_property;
    QCheck_alcotest.to_alcotest masked_compare_property;
    Alcotest.test_case "prefix does not collide" `Quick test_prefix_no_collision;
    Alcotest.test_case "empty vs nonempty" `Quick test_empty_vs_nonempty;
    Alcotest.test_case "bucket range and spread" `Quick test_bucket_range_and_spread;
    Alcotest.test_case "key dependence" `Quick test_key_dependence;
    Alcotest.test_case "truncated signatures collide" `Quick test_truncated_sig_collides;
    Alcotest.test_case "table growth stable" `Quick test_grow_consistency;
    Alcotest.test_case "siphash reference vectors" `Quick test_siphash_vectors;
    Alcotest.test_case "siphash256 lanes" `Quick test_siphash256_lanes_differ;
  ]

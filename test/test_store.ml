(* Tests for the three storage structures, including the cross-store
   equivalence property: all stores implement the same abstract
   multiset-with-insertion-order semantics. *)

open Paso

let mkuid =
  let c = ref 0 in
  fun () ->
    incr c;
    Uid.make ~machine:0 ~serial:!c

let obj fields = Pobj.make ~uid:(mkuid ()) fields
let vi i = Value.Int i
let vs s = Value.Sym s

let kinds =
  [ ("hash", Storage.Hash); ("tree", Storage.Tree); ("linear", Storage.Linear);
    ("multi", Storage.Multi) ]

let for_all_kinds f = List.iter (fun (name, kind) -> f name (Store.create kind)) kinds

let test_insert_find () =
  for_all_kinds (fun name s ->
      let o = obj [ vs "k"; vi 1 ] in
      s.Storage.insert o;
      Alcotest.(check int) (name ^ " size") 1 (s.Storage.size ());
      match s.Storage.find (Template.headed "k" [ Template.Any ]) with
      | Some found -> Alcotest.(check bool) (name ^ " found") true (Pobj.equal found o)
      | None -> Alcotest.fail (name ^ ": not found"))

let test_find_miss () =
  for_all_kinds (fun name s ->
      s.Storage.insert (obj [ vs "k"; vi 1 ]);
      Alcotest.(check bool)
        (name ^ " miss")
        true
        (s.Storage.find (Template.headed "other" [ Template.Any ]) = None))

let test_oldest_first () =
  for_all_kinds (fun name s ->
      List.iter (fun i -> s.Storage.insert (obj [ vs "k"; vi i ])) [ 1; 2; 3 ];
      let tmpl = Template.headed "k" [ Template.Any ] in
      (match s.Storage.find tmpl with
      | Some o -> Alcotest.(check bool) (name ^ " find oldest") true (Pobj.field o 1 = vi 1)
      | None -> Alcotest.fail "miss");
      let taken = List.filter_map (fun _ -> s.Storage.remove_oldest tmpl) [ (); (); () ] in
      Alcotest.(check (list int))
        (name ^ " removal FIFO")
        [ 1; 2; 3 ]
        (List.map (fun o -> match Pobj.field o 1 with Value.Int i -> i | _ -> -1) taken);
      Alcotest.(check int) (name ^ " empty") 0 (s.Storage.size ()))

let test_remove_miss_keeps_state () =
  for_all_kinds (fun name s ->
      s.Storage.insert (obj [ vs "k"; vi 1 ]);
      Alcotest.(check bool)
        (name ^ " remove miss")
        true
        (s.Storage.remove_oldest (Template.headed "x" [ Template.Any ]) = None);
      Alcotest.(check int) (name ^ " untouched") 1 (s.Storage.size ()))

let test_to_list_insertion_order () =
  for_all_kinds (fun name s ->
      let objs = List.map (fun i -> obj [ vs "k"; vi i ]) [ 5; 3; 9; 1 ] in
      List.iter s.Storage.insert objs;
      Alcotest.(check (list int))
        (name ^ " to_list order")
        [ 5; 3; 9; 1 ]
        (List.map
           (fun o -> match Pobj.field o 1 with Value.Int i -> i | _ -> -1)
           (s.Storage.to_list ())))

let test_load_roundtrip () =
  List.iter
    (fun (name, kind) ->
      let s = Store.create kind in
      List.iter (fun i -> s.Storage.insert (obj [ vs "k"; vi i ])) [ 2; 7; 4 ];
      let s' = Store.load kind (s.Storage.to_list ()) in
      Alcotest.(check int) (name ^ " size preserved") 3 (s'.Storage.size ());
      Alcotest.(check (list int))
        (name ^ " order preserved")
        [ 2; 7; 4 ]
        (List.map
           (fun o -> match Pobj.field o 1 with Value.Int i -> i | _ -> -1)
           (s'.Storage.to_list ())))
    kinds

let test_bytes_grow () =
  for_all_kinds (fun name s ->
      let b0 = s.Storage.bytes () in
      s.Storage.insert (obj [ vs "k"; Value.Str (String.make 50 'x') ]);
      Alcotest.(check bool) (name ^ " bytes grow") true (s.Storage.bytes () > b0))

let test_tree_range_query () =
  let s = Store.create Storage.Tree in
  List.iter (fun i -> s.Storage.insert (obj [ vi i; vs "row" ])) [ 1; 4; 8; 16; 32 ];
  let tmpl = Template.make [ Template.Range (vi 5, vi 20); Template.Any ] in
  (match s.Storage.find tmpl with
  | Some o -> Alcotest.(check bool) "oldest in range" true (Pobj.field o 0 = vi 8)
  | None -> Alcotest.fail "range miss");
  (* Remove both in-range rows; next find must miss. *)
  ignore (s.Storage.remove_oldest tmpl);
  ignore (s.Storage.remove_oldest tmpl);
  Alcotest.(check bool) "range exhausted" true (s.Storage.find tmpl = None);
  Alcotest.(check int) "others untouched" 3 (s.Storage.size ())

let test_tree_duplicate_keys () =
  let s = Store.create Storage.Tree in
  List.iter (fun i -> s.Storage.insert (obj [ vi 7; vi i ])) [ 1; 2; 3 ];
  let tmpl = Template.make [ Template.Eq (vi 7); Template.Any ] in
  let taken = List.filter_map (fun _ -> s.Storage.remove_oldest tmpl) [ (); (); () ] in
  Alcotest.(check (list int)) "bucket FIFO" [ 1; 2; 3 ]
    (List.map (fun o -> match Pobj.field o 1 with Value.Int i -> i | _ -> -1) taken)

let test_hash_index_with_where () =
  let s = Store.create Storage.Hash in
  s.Storage.insert (obj [ vs "k"; vi 1 ]);
  (* All-Eq template + where clause: must go through the exact index
     and still honour the where predicate. *)
  let yes = Template.make ~where:("true", fun _ -> true) [ Template.Eq (vs "k"); Template.Eq (vi 1) ] in
  let no = Template.make ~where:("false", fun _ -> false) [ Template.Eq (vs "k"); Template.Eq (vi 1) ] in
  Alcotest.(check bool) "where true" true (s.Storage.find yes <> None);
  Alcotest.(check bool) "where false" true (s.Storage.find no = None)

(* Cross-store equivalence: random op sequences give identical results
   on all three stores. This is the determinism the replication
   protocol relies on. *)
let prop_store_equivalence =
  let open QCheck2 in
  let gen_op =
    Gen.(
      oneof
        [
          map (fun (h, v) -> `Insert (h mod 3, v)) (pair small_nat small_nat);
          map (fun h -> `Find (h mod 3)) small_nat;
          map (fun h -> `Remove (h mod 3)) small_nat;
        ])
  in
  Test.make ~name:"hash/tree/linear/multi agree on random op sequences" ~count:200
    Gen.(list_size (int_range 1 60) gen_op)
    (fun ops ->
      let heads = [| "a"; "b"; "c" |] in
      let run kind =
        let s = Store.create kind in
        let out = ref [] in
        let serial = ref 0 in
        List.iter
          (fun op ->
            match op with
            | `Insert (h, v) ->
                incr serial;
                s.Storage.insert
                  (Pobj.make
                     ~uid:(Uid.make ~machine:9 ~serial:!serial)
                     [ vs heads.(h); vi v ])
            | `Find h ->
                let r = s.Storage.find (Template.headed heads.(h) [ Template.Any ]) in
                out := Option.map Pobj.uid r :: !out
            | `Remove h ->
                let r = s.Storage.remove_oldest (Template.headed heads.(h) [ Template.Any ]) in
                out := Option.map Pobj.uid r :: !out)
          ops;
        (!out, List.map Pobj.uid (s.Storage.to_list ()))
      in
      let h = run Storage.Hash and t = run Storage.Tree in
      let l = run Storage.Linear and m = run Storage.Multi in
      h = t && t = l && l = m)

(* Copy independence: after [copy ()], the original and the copy each
   behave exactly like a fresh store loaded from the original's contents
   and fed the same ops, whatever the other side does meanwhile — and
   every store's running [bytes] total stays g(ℓ) of its contents. *)
let prop_copy_independent =
  let open QCheck2 in
  let gen_spec =
    Gen.(
      oneof
        [
          return `Any;
          map (fun v -> `Eq (v mod 4)) small_nat;
          map (fun v -> `Range (v mod 4)) small_nat;
        ])
  in
  let gen_op =
    Gen.(
      oneof
        [
          map (fun (h, v) -> `Insert (h mod 3, v mod 4)) (pair small_nat small_nat);
          map (fun (h, sp) -> `Find (h mod 3, sp)) (pair small_nat gen_spec);
          map (fun (h, sp) -> `Remove (h mod 3, sp)) (pair small_nat gen_spec);
        ])
  in
  let ops = Gen.list_size (Gen.int_range 0 40) gen_op in
  Test.make ~name:"copy () is independent and behaves like a reload" ~count:200
    Gen.(triple ops ops ops)
    (fun (prefix, ops_a, ops_b) ->
      let heads = [| "a"; "b"; "c" |] in
      let serial = ref 0 in
      let tmpl h sp =
        Template.make
          [
            Template.Eq (vs heads.(h));
            (match sp with
            | `Any -> Template.Any
            | `Eq v -> Template.Eq (vi v)
            | `Range v -> Template.Range (vi v, vi (v + 1)));
          ]
      in
      let uids = List.map Pobj.uid in
      let bytes_ok s = s.Storage.bytes () = Storage.snapshot_bytes (s.Storage.to_list ()) in
      (* Apply one op to a store and its reference; true iff both answer
         alike and both keep the bytes invariant. *)
      let step (s, r) op =
        let same =
          match op with
          | `Insert (h, v) ->
              incr serial;
              let o = Pobj.make ~uid:(Uid.make ~machine:9 ~serial:!serial) [ vs heads.(h); vi v ] in
              s.Storage.insert o;
              r.Storage.insert o;
              true
          | `Find (h, sp) ->
              Option.map Pobj.uid (s.Storage.find (tmpl h sp))
              = Option.map Pobj.uid (r.Storage.find (tmpl h sp))
          | `Remove (h, sp) ->
              Option.map Pobj.uid (s.Storage.remove_oldest (tmpl h sp))
              = Option.map Pobj.uid (r.Storage.remove_oldest (tmpl h sp))
        in
        same
        && uids (s.Storage.to_list ()) = uids (r.Storage.to_list ())
        && s.Storage.size () = r.Storage.size ()
        && bytes_ok s && bytes_ok r
      in
      let rec interleave a b acc =
        match (a, b) with
        | [], [] -> acc
        | x :: a, [] -> interleave a [] (`A x :: acc)
        | [], y :: b -> interleave [] b (`B y :: acc)
        | x :: a, y :: b -> interleave a b (`B y :: `A x :: acc)
      in
      List.for_all
        (fun (_, kind) ->
          let s = Store.create kind in
          let twin = Store.create kind in
          List.for_all (fun op -> step (s, twin) op) prefix
          &&
          let c = s.Storage.copy () in
          let base = s.Storage.to_list () in
          let side_a = (s, Store.load kind base) and side_b = (c, Store.load kind base) in
          bytes_ok c
          && List.for_all
               (function `A op -> step side_a op | `B op -> step side_b op)
               (List.rev (interleave ops_a ops_b [])))
        kinds)

let test_multi_routing () =
  let s = Store.create Storage.Multi in
  List.iter (fun i -> s.Storage.insert (obj [ vi i; vs "row" ])) [ 3; 1; 7; 5 ];
  (* exact path *)
  Alcotest.(check bool) "exact hit" true
    (s.Storage.find (Template.make [ Template.Eq (vi 7); Template.Eq (vs "row") ]) <> None);
  (* ordered path *)
  (match s.Storage.find (Template.make [ Template.Range (vi 4, vi 6); Template.Any ]) with
  | Some o -> Alcotest.(check bool) "range hit" true (Pobj.field o 0 = vi 5)
  | None -> Alcotest.fail "range miss");
  (* scan path *)
  let even = Template.Pred ("even", function Value.Int i -> i mod 2 = 1 | _ -> false) in
  (match s.Storage.find (Template.make [ even; Template.Any ]) with
  | Some o -> Alcotest.(check bool) "scan oldest" true (Pobj.field o 0 = vi 3)
  | None -> Alcotest.fail "scan miss");
  (* removal maintains all indexes *)
  ignore (s.Storage.remove_oldest (Template.make [ Template.Eq (vi 3); Template.Any ]));
  Alcotest.(check bool) "exact index updated" true
    (s.Storage.find (Template.make [ Template.Eq (vi 3); Template.Eq (vs "row") ]) = None);
  Alcotest.(check int) "size" 3 (s.Storage.size ())

let test_avl_balance () =
  let tree = ref Avl.empty in
  for i = 1 to 500 do
    tree := Avl.add_item !tree (vi i) i (obj [ vi i ])
  done;
  Alcotest.(check bool) "balanced after ordered inserts" true (Avl.is_balanced !tree);
  Alcotest.(check bool) "logarithmic height" true (Avl.height !tree <= 12);
  for i = 1 to 400 do
    tree := Avl.remove_item !tree (vi i) i
  done;
  Alcotest.(check bool) "balanced after removals" true (Avl.is_balanced !tree)

let prop_tree_balanced_big =
  QCheck2.Test.make ~name:"tree handles 1000 ordered inserts" ~count:5 QCheck2.Gen.unit
    (fun () ->
      let s = Store.create Storage.Tree in
      for i = 1 to 1000 do
        s.Storage.insert (obj [ vi i; vs "x" ])
      done;
      s.Storage.size () = 1000
      && s.Storage.find (Template.make [ Template.Eq (vi 777); Template.Any ]) <> None)

let () =
  Alcotest.run "store"
    [
      ( "common",
        [
          Alcotest.test_case "insert/find" `Quick test_insert_find;
          Alcotest.test_case "find miss" `Quick test_find_miss;
          Alcotest.test_case "oldest-first discipline" `Quick test_oldest_first;
          Alcotest.test_case "remove miss keeps state" `Quick test_remove_miss_keeps_state;
          Alcotest.test_case "to_list insertion order" `Quick test_to_list_insertion_order;
          Alcotest.test_case "snapshot/load roundtrip" `Quick test_load_roundtrip;
          Alcotest.test_case "bytes grow" `Quick test_bytes_grow;
        ] );
      ( "tree",
        [
          Alcotest.test_case "range query" `Quick test_tree_range_query;
          Alcotest.test_case "duplicate keys FIFO" `Quick test_tree_duplicate_keys;
        ] );
      ("hash", [ Alcotest.test_case "index honours where" `Quick test_hash_index_with_where ]);
      ( "multi",
        [
          Alcotest.test_case "routes to all three indexes" `Quick test_multi_routing;
          Alcotest.test_case "AVL stays balanced" `Quick test_avl_balance;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_store_equivalence;
          QCheck_alcotest.to_alcotest prop_copy_independent;
          QCheck_alcotest.to_alcotest prop_tree_balanced_big;
        ] );
    ]

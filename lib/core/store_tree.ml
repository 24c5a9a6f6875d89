module Imap = Avl.Imap

type state = {
  mutable tree : Avl.t;
  mutable count : int;
  mutable next_seq : int;
  mutable bytes : int; (* = Storage.snapshot_bytes (to_list ()) *)
}

(* Oldest (min-seq) fully-matching object among the buckets the
   template's first-field spec can touch. *)
let lookup state tmpl =
  let best_in_bucket bucket best =
    Imap.fold
      (fun seq o best ->
        match best with
        | Some (bseq, _) when bseq <= seq -> best
        | _ -> if Template.matches tmpl o then Some (seq, o) else best)
      bucket best
  in
  let fold_candidates f acc =
    match Template.spec tmpl 0 with
    | Template.Eq v -> Avl.fold_range state.tree ~lo:v ~hi:v f acc
    | Template.Range (lo, hi) -> Avl.fold_range state.tree ~lo ~hi f acc
    | Template.Any | Template.Type_is _ | Template.Pred _ ->
        Avl.fold_all state.tree f acc
  in
  fold_candidates (fun _key bucket best -> best_in_bucket bucket best) None

let rec make state =
  let insert o =
    let seq = state.next_seq in
    state.next_seq <- seq + 1;
    state.tree <- Avl.add_item state.tree (Pobj.field o 0) seq o;
    state.count <- state.count + 1;
    state.bytes <- state.bytes + Storage.object_bytes o
  in
  let find tmpl = Option.map snd (lookup state tmpl) in
  let remove_oldest tmpl =
    match lookup state tmpl with
    | Some (seq, o) ->
        state.tree <- Avl.remove_item state.tree (Pobj.field o 0) seq;
        state.count <- state.count - 1;
        state.bytes <- state.bytes - Storage.object_bytes o;
        Some o
    | None -> None
  in
  let size () = state.count in
  let to_list () =
    Avl.fold_all state.tree
      (fun _ bucket acc -> Imap.fold (fun seq o l -> (seq, o) :: l) bucket acc)
      []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let bytes () = state.bytes in
  let copy () = make { state with tree = state.tree } in
  {
    Storage.kind = Storage.Tree;
    insert;
    find;
    remove_oldest;
    size;
    bytes;
    to_list;
    copy;
    cost = Storage.cost_of_kind Storage.Tree;
  }

let create () = make { tree = Avl.empty; count = 0; next_seq = 0; bytes = 0 }

let load objs =
  let store = create () in
  List.iter store.Storage.insert objs;
  store

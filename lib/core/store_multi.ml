module Imap = Avl.Imap

type state = {
  mutable items : Pobj.t Imap.t; (* seq -> object, the ground truth *)
  exact : Store_index.t; (* canonical tuple -> seqs *)
  mutable ordered : Avl.t; (* first field -> bucket *)
  mutable next_seq : int;
  mutable count : int; (* = Imap.cardinal items; size () is on the
                          per-operation cost path *)
  mutable bytes : int; (* = Storage.snapshot_bytes (to_list ()) *)
}

(* Route a template to the cheapest index; each path yields the oldest
   full match. *)
let lookup state tmpl =
  match Store_index.key tmpl with
  | Some key -> Store_index.oldest state.exact state.items tmpl key
  | None -> begin
      match Template.spec tmpl 0 with
      | Template.Eq v | Template.Range (v, _) -> begin
          let hi = match Template.spec tmpl 0 with
            | Template.Range (_, hi) -> hi
            | _ -> v
          in
          let best_in_bucket bucket best =
            Imap.fold
              (fun seq o best ->
                match best with
                | Some (bseq, _) when bseq <= seq -> best
                | _ -> if Template.matches tmpl o then Some (seq, o) else best)
              bucket best
          in
          Avl.fold_range state.ordered ~lo:v ~hi
            (fun _key bucket best -> best_in_bucket bucket best)
            None
        end
      | Template.Any | Template.Type_is _ | Template.Pred _ ->
          Store_index.scan state.items tmpl
    end

let rec make state =
  let insert o =
    let seq = state.next_seq in
    state.next_seq <- seq + 1;
    state.items <- Imap.add seq o state.items;
    state.count <- state.count + 1;
    state.bytes <- state.bytes + Storage.object_bytes o;
    Store_index.add state.exact o seq;
    state.ordered <- Avl.add_item state.ordered (Pobj.field o 0) seq o
  in
  let remove_entry seq o =
    state.items <- Imap.remove seq state.items;
    state.count <- state.count - 1;
    state.bytes <- state.bytes - Storage.object_bytes o;
    Store_index.remove state.exact o seq;
    state.ordered <- Avl.remove_item state.ordered (Pobj.field o 0) seq
  in
  let find tmpl = Option.map snd (lookup state tmpl) in
  let remove_oldest tmpl =
    match lookup state tmpl with
    | Some (seq, o) ->
        remove_entry seq o;
        Some o
    | None -> None
  in
  let size () = state.count in
  let bytes () = state.bytes in
  let to_list () = List.map snd (Imap.bindings state.items) in
  let copy () = make { state with exact = Store_index.copy state.exact } in
  {
    Storage.kind = Storage.Multi;
    insert;
    find;
    remove_oldest;
    size;
    bytes;
    to_list;
    copy;
    cost = Storage.cost_of_kind Storage.Multi;
  }

let create () =
  make
    {
      items = Imap.empty;
      exact = Store_index.create ();
      ordered = Avl.empty;
      next_seq = 0;
      count = 0;
      bytes = 0;
    }

let load objs =
  let store = create () in
  List.iter store.Storage.insert objs;
  store

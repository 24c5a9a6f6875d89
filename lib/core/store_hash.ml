module Imap = Avl.Imap

type state = {
  mutable items : Pobj.t Imap.t; (* seq -> object, insertion-ordered *)
  index : Store_index.t; (* canonical tuple -> seqs *)
  mutable next_seq : int;
  mutable count : int; (* = Imap.cardinal items, maintained: size () is
                          on the per-operation cost path *)
  mutable bytes : int; (* = Storage.snapshot_bytes (to_list ()) *)
}

let lookup state tmpl =
  match Store_index.key tmpl with
  | Some key -> Store_index.oldest state.index state.items tmpl key
  | None -> Store_index.scan state.items tmpl

let rec make state =
  let insert o =
    let seq = state.next_seq in
    state.next_seq <- seq + 1;
    state.items <- Imap.add seq o state.items;
    state.count <- state.count + 1;
    state.bytes <- state.bytes + Storage.object_bytes o;
    Store_index.add state.index o seq
  in
  let find tmpl = Option.map snd (lookup state tmpl) in
  let remove_oldest tmpl =
    match lookup state tmpl with
    | Some (seq, o) ->
        state.items <- Imap.remove seq state.items;
        state.count <- state.count - 1;
        state.bytes <- state.bytes - Storage.object_bytes o;
        Store_index.remove state.index o seq;
        Some o
    | None -> None
  in
  let size () = state.count in
  let bytes () = state.bytes in
  let to_list () = List.map snd (Imap.bindings state.items) in
  let copy () = make { state with index = Store_index.copy state.index } in
  {
    Storage.kind = Storage.Hash;
    insert;
    find;
    remove_oldest;
    size;
    bytes;
    to_list;
    copy;
    cost = Storage.cost_of_kind Storage.Hash;
  }

let create () =
  make
    { items = Imap.empty; index = Store_index.create (); next_seq = 0; count = 0; bytes = 0 }

let load objs =
  let store = create () in
  List.iter store.Storage.insert objs;
  store

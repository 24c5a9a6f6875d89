module Imap = Avl.Imap

type state = {
  mutable items : Pobj.t Imap.t;
  mutable next_seq : int;
  mutable count : int; (* = Imap.cardinal items; size () is on the
                          per-operation cost path *)
  mutable bytes : int; (* = Storage.snapshot_bytes (to_list ()) *)
}

let rec make state =
  let insert o =
    state.items <- Imap.add state.next_seq o state.items;
    state.next_seq <- state.next_seq + 1;
    state.count <- state.count + 1;
    state.bytes <- state.bytes + Storage.object_bytes o
  in
  let find tmpl = Option.map snd (Store_index.scan state.items tmpl) in
  let remove_oldest tmpl =
    match Store_index.scan state.items tmpl with
    | Some (seq, o) ->
        state.items <- Imap.remove seq state.items;
        state.count <- state.count - 1;
        state.bytes <- state.bytes - Storage.object_bytes o;
        Some o
    | None -> None
  in
  let size () = state.count in
  let bytes () = state.bytes in
  let to_list () = List.map snd (Imap.bindings state.items) in
  let copy () = make { state with items = state.items } in
  {
    Storage.kind = Storage.Linear;
    insert;
    find;
    remove_oldest;
    size;
    bytes;
    to_list;
    copy;
    cost = Storage.cost_of_kind Storage.Linear;
  }

let create () = make { items = Imap.empty; next_seq = 0; count = 0; bytes = 0 }

let load objs =
  let store = create () in
  List.iter store.Storage.insert objs;
  store

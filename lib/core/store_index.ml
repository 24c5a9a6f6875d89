module Imap = Avl.Imap
module Iset = Set.Make (Int)

(* Canonical tuple -> seqs. Buckets are immutable sets, replaced on
   every change, so [Hashtbl.copy] is a clone: no cell is shared. *)
type t = (string, Iset.t) Hashtbl.t

let create () = Hashtbl.create 64
let copy = Hashtbl.copy

(* One buffer pass, no intermediate list — this runs at every replica
   per store/remove. The rendered string is identical to
   [String.concat "\x00" (List.map (type_name ^ ":" ^ to_string))]. *)
let canonical_fields fields =
  let buf = Buffer.create 48 in
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf '\x00';
      Buffer.add_string buf (Value.type_name v);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Value.to_string v))
    fields;
  Buffer.contents buf

let canonical_obj o = canonical_fields (Pobj.fields o)

(* A where-clause is handled on the index path too: any object matching
   an all-Eq template lives in exactly that bucket, and bucket hits are
   re-verified with the full [Template.matches] (which includes where). *)
let key tmpl =
  let rec all_eq acc = function
    | [] -> Some (List.rev acc)
    | Template.Eq v :: rest -> all_eq (v :: acc) rest
    | (Template.Any | Template.Type_is _ | Template.Range _ | Template.Pred _) :: _ ->
        None
  in
  Option.map canonical_fields (all_eq [] (Template.specs tmpl))

let add t o seq =
  let key = canonical_obj o in
  Hashtbl.replace t key
    (match Hashtbl.find_opt t key with
    | Some set -> Iset.add seq set
    | None -> Iset.singleton seq)

let remove t o seq =
  let key = canonical_obj o in
  match Hashtbl.find_opt t key with
  | Some set ->
      let set = Iset.remove seq set in
      if Iset.is_empty set then Hashtbl.remove t key else Hashtbl.replace t key set
  | None -> ()

(* Early-exit walks: iteration is in ascending seq (= insertion)
   order, so the first hit is the oldest match — stop there instead of
   walking the rest as a fold would. *)
exception Found of int * Pobj.t

let oldest t items tmpl key =
  match Hashtbl.find_opt t key with
  | None -> None
  | Some set -> (
      match
        Iset.iter
          (fun seq ->
            let o = Imap.find seq items in
            if Template.matches tmpl o then raise_notrace (Found (seq, o)))
          set
      with
      | () -> None
      | exception Found (seq, o) -> Some (seq, o))

let scan items tmpl =
  match
    Imap.iter
      (fun seq o -> if Template.matches tmpl o then raise_notrace (Found (seq, o)))
      items
  with
  | () -> None
  | exception Found (seq, o) -> Some (seq, o)

(** The exact-tuple index shared by the hash and multi-index stores,
    and the oldest-match walks every sequence-keyed store uses.

    The index maps an object's canonical tuple to the sequence numbers
    of the live objects holding it. Buckets are immutable sets, so
    {!copy} yields an index independent of the original — what lets a
    store hand out a copy-on-write image of itself. *)

type t

val create : unit -> t

val copy : t -> t
(** An independent index with the same bindings. *)

val key : Template.t -> string option
(** The canonical tuple a template pins, when every field is [Eq]
    ([where] clauses allowed: {!oldest} re-verifies each hit), or
    [None] when the index cannot answer it. *)

val add : t -> Pobj.t -> int -> unit
(** [add t obj seq] indexes [obj], stored under [seq]. *)

val remove : t -> Pobj.t -> int -> unit
(** Undo {!add}; a no-op if absent. *)

val oldest : t -> Pobj.t Avl.Imap.t -> Template.t -> string -> (int * Pobj.t) option
(** [oldest t items tmpl key]: the oldest entry of [items] in [key]'s
    bucket that fully matches [tmpl]. *)

val scan : Pobj.t Avl.Imap.t -> Template.t -> (int * Pobj.t) option
(** The oldest entry of [items] matching the template, by an
    insertion-order scan that stops at the first hit. *)

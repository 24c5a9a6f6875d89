(** Operation routing: from a template or object to the classes and
    machines that serve it, and onto the wire.

    Owns the {e read-side} of the §4 macro expansions: the memoised
    [sc-list] derivation (candidate classes per structural template
    signature), the read-group restriction actually applied to a gcast
    — including the WAN refinement that prefers replicas in the
    reader's own cluster — and the batching hand-off: every fan-out
    goes through this module, which picks {!Vsync.gcast_batch} or
    plain {!Vsync.gcast} per the configured batching mode, and under
    batching coalesces duplicate remote mem-reads (same machine, class
    and structural template, no interleaved mutation of the class)
    onto one outstanding request.

    It also owns the {e marker fan-out} of §4.3's blocking reads: the
    placement, cancellation and new-class arming gcasts for parked
    {!Op.waiter}s (the wake/attempt state machine itself lives in
    {!Op.Waiters}).

    The router holds no membership state of its own: it reads the
    class universe from the {!Membership.t} it was created over, and
    [System] calls {!invalidate} at the single point where the
    universe changes (class creation). *)

type topology =
  | Lan  (** the paper's single shared bus *)
  | Wan of { clusters : int array; remote : Net.Cost_model.t }
      (** machines grouped into clusters ([clusters.(m)]);
          inter-cluster messages priced by [remote] *)

type t

val create :
  classing:Obj_class.strategy ->
  lambda:int ->
  topology:topology ->
  batching:bool ->
  mem:Membership.t ->
  stats:Sim.Stats.t ->
  t

val attach_vsync : t -> Membership.vsync -> unit
(** Wire the vsync instance (exactly once) — fan-outs need it. *)

(** {1 Classing} *)

val classify : t -> Pobj.t -> Obj_class.info
val class_of : t -> Pobj.t -> string

val universe : t -> Obj_class.info list
(** The known classes, memoised until {!invalidate}. *)

val sc_list : t -> Template.t -> string list
(** The candidate classes ([sc-list], §4.3) for a template, memoised
    per structural template signature (hits and misses counted under
    ["cache.sc_hits"] / ["cache.sc_misses"]). [Pred] specs and
    [Custom] strategies bypass the cache — their behaviour is a
    closure with no serialisable identity. Raw sc-list only: see
    {!candidates} for the filtered list operations walk. *)

val sc_key : t -> Template.t -> string option
(** The template's {!sc_list} memo key, rendered once; [None] when the
    lookup bypasses the cache. Routers configured with the same
    classing strategy render the same key. *)

val candidates : ?key:string option -> t -> Template.t -> string list
(** The classes an operation on the template visits: {!sc_list}
    restricted to the classes currently known here, in name order.
    Reads, takes, snapshots and a waiter's markers all cover exactly
    this list. [key], when given, is the template's {!sc_key} as
    rendered by a router with the same classing strategy. *)

val invalidate : t -> unit
(** The class universe changed: drop the memoised universe and every
    cached sc-list (the only invalidation point). *)

(** {1 Read-group restriction} *)

val read_restrict : t -> basic:int list -> machine:int -> int list -> int list
(** The restriction applied to a read fan-out's recipient set. LAN:
    operational basic support, falling back to the first λ+1 members
    (§4.3). WAN: replicas in the reader's own cluster first — any
    replica's answer is valid for a read, and this is the natural
    wide-area refinement of the rg(C) optimisation (the paper's
    closing open problem). *)

val crossed_wan : t -> machine:int -> members:int list -> bool
(** Does a read from [machine] have to cross the wide area? True iff
    no write-group member shares the reader's cluster; always false on
    the LAN. *)

val fast_restrict : t -> basic:int list -> machine:int -> int list -> int list
(** Single-replica fast read: the read-group restriction collapsed to
    ONE member (rotating with the issuing machine), so the gcast costs
    2 messages instead of the full rg(C) fan-out. Only sound when the
    caller tags the request with the class's freshness token
    ({!Membership.fresh_guard}) and falls back to {!read_restrict} on a
    stale or probational response; a crashed pick degrades to the full
    fan-out via the vsync exec-time restrict rule. *)

(** {1 Fan-out (batching hand-off)} *)

val fan_out_batched :
  t ->
  group:string ->
  from:int ->
  Server.msg ->
  on_done:(Pobj.t option -> int -> unit) ->
  unit
(** Batched entry point (inserts, marker traffic): joins the group's
    accumulation window when batching is configured, and is exactly
    [gcast] otherwise. [on_done] receives the response and the
    responder count. *)

val fan_out_read :
  t ->
  restrict:(int list -> int list) ->
  eager:bool ->
  group:string ->
  from:int ->
  Server.msg ->
  on_done:(Pobj.t option -> int -> unit) ->
  unit
(** Remote mem-read fan-out: restricted gcast through the batcher when
    batching is on (the eager flag does not compose with piggybacked
    batch responses, so it is dropped on that path), eager-capable
    plain gcast otherwise. *)

val fan_out_ordered :
  t -> group:string -> from:int -> Server.msg -> on_done:(Pobj.t option -> unit) -> unit
(** Full write-group gcast in total order (removes): never batched,
    never restricted. *)

(** {1 Marker fan-out (§4.3 read-markers)} *)

val place_markers : t -> Op.waiter -> unit
(** Gcast a marker placement to the write group of every class in
    {!candidates} (each placement counted under ["paso.marker_placements"]). *)

val wake_agent : t -> group:string -> int
(** The member that serves a marker's wake-up when a matching store
    fires it (markers are replicated to the whole write group, so any
    member could; exactly one must): the group leader, the head of the
    live member list. [-1] if the group has no members. *)

val cancel_markers : t -> Op.waiter -> unit
(** Gcast marker cancellations for a satisfied or expired waiter; a
    no-op if its machine is down (the markers died with it). *)

val arm_new_class : t -> Op.waiter list -> cls:string -> unit
(** A class was just created: place markers in it for every parked
    waiter whose template covers it (waiters park against templates,
    which may match classes that do not exist yet). *)

(** {1 Read coalescing (batching only)} *)

val coalesced_issue :
  t ->
  machine:int ->
  cls:string ->
  Template.t ->
  handle:(Pobj.t option -> int -> unit) ->
  issue:((Pobj.t option -> int -> unit) -> unit) ->
  unit
(** Issue a remote mem-read, deduplicating under batching: if an
    identical read (same machine, class, structural template, mutation
    serial) is already outstanding, piggyback [handle] on its response
    (counted under ["paso.reads_coalesced"]) instead of calling
    [issue]; otherwise register the read as the window's primary and
    [issue] it with a wrapped handler that fans the response out to
    every piggybacked duplicate. With batching off (or an uncacheable
    template) this is exactly [issue handle]. *)

val drop_machine : t -> int -> unit
(** Crash cleanup: coalesced reads are the machine's local memory —
    the primary's vsync callback is orphaned with the issuer, so drop
    its windows or later identical reads could attach to a dead
    primary. *)

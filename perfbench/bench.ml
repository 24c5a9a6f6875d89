(* The repository's benchmark of record: three open-loop workloads over
   the sharded engine, driven and timed from outside through public
   calls only.

   A repetition of a workload runs each of its input streams in a fresh
   process ([bench.exe stream]): a new engine preloaded with a standing
   population (the set-up), then a fixed number of Poisson arrivals
   issued at their exact virtual instants and run to quiescence (the
   timed window). [bench.exe merge] sums the streams into one record
   and prints it as one JSON line. perfbench/run.py builds this
   program, runs repetitions until its wall-clock budget is spent,
   compares their digests and summarises them.

   README.md in this directory records the workloads, the layer ->
   metric map and the baseline observations. *)

open Paso
module Hist = Traffic.Hist

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ---- workloads ---------------------------------------------------------- *)

type workload = {
  w_name : string;
  shards : int;
  domains : int;
  classes : int;
  zipf_s : float;
  mix : int * int * int;  (** insert : read : take weights *)
  policy : string;  (** [Check.Runner.policy_of_string] spelling *)
  durable : bool;
  rota : (float * float) option;  (** periodic crash rota: period, down time *)
  rebalance : bool;
  skewed_layout : bool;  (** the hottest heads colocated on shard 0 *)
  preload : int;  (** standing objects per class before the window *)
  rate : float;  (** Poisson arrivals per unit of virtual time *)
  ops : int;  (** arrivals per stream *)
  streams : int;  (** independent input streams per repetition *)
}

(* The paper's default ensemble, shared by every workload. *)
let n = 8
let lambda = 2

(* Every workload arrives at 1.5e-4 ops per unit of virtual time, about
   half the measured capacity of the totally ordered op pipeline (see
   Traffic.Scenario), so latency reflects the protocol rather than a
   growing backlog. A repetition's streams are sized so its merged
   histogram has tens of samples beyond p999 and its quantiles and
   mean heap peak move little from seed to seed. Streams stay short
   because write_crash_durable's checkpoints grow with run length
   (README.md, B1). *)
let workloads =
  [
    {
      w_name = "read_mostly";
      shards = 1;
      domains = 1;
      classes = 64;
      zipf_s = 1.1;
      mix = (1, 7, 2);
      policy = "counter";
      durable = false;
      rota = None;
      rebalance = false;
      skewed_layout = false;
      preload = 64;
      rate = 1.5e-4;
      ops = 16_000;
      streams = 4;
    };
    {
      w_name = "write_crash_durable";
      shards = 1;
      domains = 1;
      classes = 16;
      zipf_s = 0.0;
      mix = (2, 1, 2);
      policy = "static";
      durable = true;
      rota = Some (2.0e6, 1.0e6);
      rebalance = false;
      skewed_layout = false;
      preload = 16;
      rate = 1.5e-4;
      ops = 8_000;
      streams = 8;
    };
    {
      w_name = "sharded_skew";
      shards = 4;
      domains = 1;
      classes = 64;
      zipf_s = 1.2;
      mix = (1, 1, 1);
      policy = "static";
      durable = false;
      rota = None;
      rebalance = true;
      skewed_layout = true;
      preload = 16;
      rate = 1.5e-4;
      ops = 4_000;
      streams = 8;
    };
  ]

(* Head names ranked hottest-first. Under [skewed_layout] the top
   [shards] ranks all hash to shard 0 — the adversarial placement the
   rebalancer exists for; the tail takes names as they come. *)
let heads_of w cfg =
  if not w.skewed_layout then Array.init w.classes (Printf.sprintf "c%d")
  else begin
    let cls_name h =
      (Obj_class.classify cfg.System.classing
         (Pobj.make ~uid:(Uid.make ~machine:0 ~serial:0) [ Value.Sym h; Value.Int 0 ]))
        .Obj_class.name
    in
    let nhot = min w.shards w.classes in
    let hot = ref [] and rest = ref [] and i = ref 0 in
    while List.length !hot < nhot || List.length !rest < w.classes - nhot do
      let h = Printf.sprintf "k%d" !i in
      incr i;
      if Shard.shard_of_class ~shards:w.shards (cls_name h) = 0 && List.length !hot < nhot
      then hot := h :: !hot
      else if List.length !rest < w.classes - nhot then rest := h :: !rest
    done;
    Array.of_list (List.rev !hot @ List.rev !rest)
  end

(* ---- spans -------------------------------------------------------------- *)

(* Layer boundaries visible from outside: each span wraps one public
   call (or one fixed group of calls) into the named module. *)
let l_setup = 0
let l_create = 1
let l_attach = 2
let l_preload = 3
let l_timed = 4
let l_gen = 5
let l_dispatch = 6
let l_issue = 7
let l_crash = 8
let l_recover = 9
let l_verify = 10

let layer_names =
  [|
    "bench.setup";
    "core.shard.create";
    "durable.manager.attach";
    "core.preload";
    "bench.timed_window";
    "traffic.gen";
    "sim.dispatch";
    "core.issue";
    "core.membership.crash";
    "core.membership.recover";
    "check.verify";
  |]

(* Spans live in parallel growable arrays: recording one is two clock
   reads and a few array writes, so the traced run stays close to the
   untraced one. A process keeps the spans of its one stream. *)
module Spans = struct
  let on = ref false
  let len = ref 0
  let s_layer = ref [||]
  let s_start = ref [||]
  let s_stop = ref [||]
  let s_parent = ref [||]
  let s_op = ref [||]

  let grow () =
    let cap = Array.length !s_layer in
    let ext a = Array.append !a (Array.make (max 4096 cap) 0) in
    s_layer := ext s_layer;
    s_start := ext s_start;
    s_stop := ext s_stop;
    s_parent := ext s_parent;
    s_op := ext s_op

  (* The span id, or -1 when tracing is off. *)
  let enter ?(parent = -1) ?(op = -1) layer =
    if not !on then -1
    else begin
      if !len = Array.length !s_layer then grow ();
      let id = !len in
      incr len;
      !s_layer.(id) <- layer;
      !s_parent.(id) <- parent;
      !s_op.(id) <- op;
      !s_start.(id) <- now_ns ();
      id
    end

  let leave id = if id >= 0 then !s_stop.(id) <- now_ns ()

  (* Per layer: calls, total ns, and self ns — total minus the part of
     the interval its direct children cover (children nest by
     construction). *)
  let aggregate () =
    let k = Array.length layer_names in
    let calls = Array.make k 0 and total = Array.make k 0 and self = Array.make k 0 in
    for i = 0 to !len - 1 do
      let l = !s_layer.(i) and d = !s_stop.(i) - !s_start.(i) in
      calls.(l) <- calls.(l) + 1;
      total.(l) <- total.(l) + d;
      self.(l) <- self.(l) + d;
      let p = !s_parent.(i) in
      if p >= 0 then self.(!s_layer.(p)) <- self.(!s_layer.(p)) - d
    done;
    (calls, total, self)

  let write_jsonl path =
    let oc = open_out path in
    for i = 0 to !len - 1 do
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}\n" i
        layer_names.(!s_layer.(i))
        !s_start.(i) !s_stop.(i) !s_parent.(i) !s_op.(i)
    done;
    close_out oc
end

(* ---- one repetition ----------------------------------------------------- *)

(* The program's own counters the metrics read, as deltas over the
   timed window. A key is either a counter or an accumulator, so the
   sum of both readings is its value. *)
let stat_keys =
  [
    "net.msgs"; "net.msg_cost"; "net.frames"; "vsync.gcasts"; "vsync.view_changes";
    "vsync.joins"; "vsync.leaves"; "paso.op.retries"; "paso.read_retries";
    "paso.poll_retries"; "paso.op.deadline_expired"; "paso.op.budget_exhausted";
    "paso.local_reads"; "paso.remote_reads"; "policy.joins"; "policy.leaves";
    "server.queries"; "server.stores"; "server.removes"; "work.total"; "cache.sc_hits";
    "cache.sc_misses"; "durable.appends"; "durable.wal_bytes"; "durable.checkpoints";
    "durable.checkpoint_bytes"; "durable.disk_time"; "durable.delta_bytes";
    "rebalance.migrations"; "rebalance.deferred"; "shard.cross_retries";
  ]

let stat sh k =
  if k = "shard.cross_retries" then float_of_int (Shard.cross_retries sh)
  else float_of_int (Shard.stat_count sh k) +. Shard.stat_total sh k

let events sh =
  Array.fold_left
    (fun acc s -> acc + Sim.Engine.events_executed (System.engine s))
    0 (Shard.systems sh)

(* Program-wide GC counters: after a forced minor collection every
   domain's allocation sample is current, so [quick_stat] covers the
   shard worker domains too, not only the coordinator. *)
let gc_probe () =
  Gc.minor ();
  Gc.quick_stat ()

(* One stream's measurements, or the sum of a repetition's streams. *)
type rep = {
  r_setup_s : float;
  r_wall_s : float;
  r_issued : int;
  r_completed : int;  (** timed ops with a recorded return *)
  r_failed : int;
  r_orphaned : int;  (** unreturned ops whose issuing machine crashed *)
  r_hist : Hist.t;
  r_delta : (string * float) list;
  r_events : int;
  r_calls : int;  (** Shard.advance_to / Shard.run calls in the window *)
  r_records : int;  (** history records, preload included *)
  r_hot_share : float;
  r_minor_words : float;
  r_promoted_words : float;
  r_major_collections : int;
  r_top_heap_words : float;  (** a stream's top heap; a repetition's mean *)
  r_digest : string;
  r_check : (float * string list) option;  (** seconds, violations *)
  r_problems : string list;
  r_layers : (int array * int array * int array) option;  (** traced only *)
}

let run_stream w ~seed ~stream ~check =
  let op_base = stream * w.ops in
  let seed = Sim.Rng.derive seed ~stream:(100 + stream) in
  let t0 = now_ns () in
  let sp_setup = Spans.enter l_setup in
  let cfg =
    {
      System.default_config with
      n;
      lambda;
      policy = Check.Runner.policy_of_string w.policy;
      seed;
    }
  in
  let sp = Spans.enter ~parent:sp_setup l_create in
  let rebalance = if w.rebalance then Some Rebalance.default_cfg else None in
  let sh = Shard.create ~shards:w.shards ~domains:w.domains ?rebalance cfg in
  Spans.leave sp;
  if w.durable then begin
    let sp = Spans.enter ~parent:sp_setup l_attach in
    Array.iter (fun s -> ignore (Durable.Manager.attach s)) (Shard.systems sh);
    Spans.leave sp
  end;
  let heads = heads_of w cfg in
  let sp = Spans.enter ~parent:sp_setup l_preload in
  Array.iteri
    (fun ci head ->
      for j = 1 to w.preload do
        Shard.insert sh ~machine:((ci + j) mod n) [ Value.Sym head; Value.Int (-j) ]
          ~on_done:ignore
      done)
    heads;
  Shard.run sh;
  Spans.leave sp;
  Spans.leave sp_setup;
  let setup_s = float_of_int (now_ns () - t0) /. 1e9 in
  (* Inputs: every draw comes from streams derived from the seed, on
     the coordinator, so the issue sequence is a pure function of it. *)
  let t_start = Shard.now sh in
  let arrivals =
    Traffic.Arrival.make (Traffic.Arrival.Poisson { rate = w.rate })
      ~seed:(Sim.Rng.derive seed ~stream:1)
  in
  let rng = Sim.Rng.make (Sim.Rng.derive seed ~stream:2) in
  let zipf = Workload.Zipf.create ~n:w.classes ~s:w.zipf_s in
  let faults =
    ref
      (match w.rota with
      | None -> []
      | Some (period, down_time) ->
          Workload.Faultgen.periodic ~n ~lambda
            ~horizon:(float_of_int w.ops /. w.rate)
            ~period ~down_time
          |> List.map (fun (f : Workload.Faultgen.fault) -> { f with at = f.at +. t_start }))
  in
  let wi, wr, wt = w.mix in
  let base = List.map (fun k -> (k, stat sh k)) stat_keys in
  let ev0 = events sh in
  let g0 = gc_probe () in
  let callbacks = ref 0 and calls = ref 0 and crashes = ref [] in
  let first = ref infinity in
  let w0 = now_ns () in
  let sp_timed = Spans.enter l_timed in
  let dispatch ~op f =
    let sp = Spans.enter ~parent:sp_timed ~op l_dispatch in
    incr calls;
    f ();
    Spans.leave sp
  in
  (* A fault at an arrival's instant lands before the arrival. *)
  let rec faults_until limit =
    match !faults with
    | { Workload.Faultgen.at; action } :: rest when at <= limit ->
        faults := rest;
        dispatch ~op:(-1) (fun () -> Shard.advance_to sh at);
        (match action with
        | `Crash m ->
            let sp = Spans.enter ~parent:sp_timed l_crash in
            Shard.crash sh ~machine:m;
            Spans.leave sp;
            crashes := (m, at) :: !crashes
        | `Recover m ->
            let sp = Spans.enter ~parent:sp_timed l_recover in
            Shard.recover sh ~machine:m;
            Spans.leave sp);
        faults_until limit
    | _ -> ()
  in
  let t = ref t_start in
  for i = 1 to w.ops do
    let sp = Spans.enter ~parent:sp_timed ~op:(op_base + i) l_gen in
    let a = Traffic.Arrival.next arrivals !t in
    let ci = Workload.Zipf.sample zipf rng in
    let m0 = Sim.Rng.int rng n in
    let k = Sim.Rng.int rng (wi + wr + wt) in
    Spans.leave sp;
    if i = 1 then first := a;
    faults_until a;
    dispatch ~op:(op_base + i) (fun () -> Shard.advance_to sh a);
    (* A client whose machine is down retargets the next live one. *)
    let rec live j =
      let c = (m0 + j) mod n in
      if j >= n || Shard.is_up sh c then c else live (j + 1)
    in
    let machine = live 0 in
    let head = heads.(ci) in
    let tmpl = Template.headed head [ Template.Any ] in
    let sp = Spans.enter ~parent:sp_timed ~op:(op_base + i) l_issue in
    if k < wi then
      Shard.insert sh ~machine [ Value.Sym head; Value.Int i ] ~on_done:(fun () ->
          incr callbacks)
    else if k < wi + wr then Shard.read sh ~machine tmpl ~on_done:(fun _ -> incr callbacks)
    else Shard.read_del sh ~machine tmpl ~on_done:(fun _ -> incr callbacks);
    Spans.leave sp;
    t := a
  done;
  (* Past the last arrival: land the rest of the rota (recoveries
     always land), then run every in-flight op to its end. *)
  faults_until infinity;
  dispatch ~op:(-1) (fun () -> Shard.run sh);
  Spans.leave sp_timed;
  let wall_s = float_of_int (now_ns () - w0) /. 1e9 in
  let g1 = gc_probe () in
  let delta = List.map2 (fun (k, b) k' -> (k, stat sh k' -. b)) base stat_keys in
  let d k = List.assoc k delta in
  let ev = events sh - ev0 in
  (* Set-up ops issued before the first arrival stay out of the
     latency histogram and the op counts. *)
  let hist = Hist.create () and samples = ref [] in
  let records = ref 0 and timed = ref 0 and completed = ref 0 and orphaned = ref 0 in
  Array.iter
    (fun s ->
      List.iter
        (fun (r : History.record) ->
          incr records;
          if r.issue >= !first then begin
            incr timed;
            match r.ret_time with
            | Some rt ->
                incr completed;
                Hist.record hist (rt -. r.issue);
                samples := (rt -. r.issue) :: !samples
            | None ->
                (* Its issuer crashed with it in flight: the client died
                   with its machine, so no answer can reach it. *)
                if List.exists (fun (m, at) -> m = r.machine && at >= r.issue) !crashes then
                  incr orphaned
          end)
        (History.records (System.history s)))
    (Shard.systems sh);
  let problems =
    (if !timed <> w.ops then
       [ Printf.sprintf "history holds %d timed ops for %d issued" !timed w.ops ]
     else [])
    @
    if !callbacks <> !completed then
      [ Printf.sprintf "%d completion callbacks for %d recorded returns" !callbacks !completed ]
    else []
  in
  let failed =
    w.ops - !completed - !orphaned
    + int_of_float (d "paso.op.deadline_expired" +. d "paso.op.budget_exhausted")
  in
  let loads = Shard.shard_loads sh in
  let load_sum = Array.fold_left ( +. ) 0.0 loads in
  let hot_share =
    if load_sum > 0.0 then Array.fold_left Float.max 0.0 loads /. load_sum else 1.0
  in
  let digest =
    let b = Buffer.create 8192 in
    Buffer.add_string b (Hist.render hist);
    List.iter
      (fun k ->
        Printf.bprintf b "%s %d %h\n" k (Shard.stat_count sh k) (Shard.stat_total sh k))
      (Shard.stat_keys sh);
    Printf.bprintf b "events %d timed %d completed %d callbacks %d records %d calls %d\n" ev
      !timed !completed !callbacks !records !calls;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let check =
    if not check then None
    else begin
      let sp = Spans.enter l_verify in
      let c0 = now_ns () in
      let reports =
        Array.to_list (Shard.systems sh) |> List.concat_map Check.Invariants.all
      in
      Spans.leave sp;
      Some
        ( float_of_int (now_ns () - c0) /. 1e9,
          List.map (Format.asprintf "%a" Check.Invariants.pp_report) reports )
    end
  in
  ( {
    r_setup_s = setup_s;
    r_wall_s = wall_s;
    r_issued = w.ops;
    r_completed = !completed;
    r_failed = failed;
    r_orphaned = !orphaned;
    r_hist = hist;
    r_delta = delta;
    r_events = ev;
    r_calls = !calls;
    r_records = !records;
    r_hot_share = hot_share;
    r_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    r_promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    r_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    r_top_heap_words = float_of_int g1.Gc.top_heap_words;
    r_digest = digest;
    r_check = check;
    r_problems = problems;
    r_layers = (if !Spans.on then Some (Spans.aggregate ()) else None);
  },
    List.rev !samples )

(* ---- metrics of one repetition ------------------------------------------ *)

let ops_per_s r = float_of_int r.r_completed /. r.r_wall_s
let per_op r x = x /. float_of_int r.r_issued
let per_kop r x = 1000.0 *. x /. float_of_int r.r_issued
let ratio a b = if b > 0.0 then a /. b else 0.0

(* The end-to-end metrics, named and defined as in README.md. Each
   stream runs in a fresh process, so a stream's top heap is its own;
   the repetition reports the mean over its streams. *)
let end_to_end r =
  let d k = List.assoc k r.r_delta in
  [
    ("ops_per_s", ops_per_s r, "1/s");
    ("sim_p50", Hist.p50 r.r_hist, "sim_units");
    ("sim_p99", Hist.p99 r.r_hist, "sim_units");
    ("sim_p999", Hist.p999 r.r_hist, "sim_units");
    ("msgs_per_op", per_op r (d "net.msgs"), "msgs/op");
    ("msg_cost_per_op", per_op r (d "net.msg_cost"), "cost/op");
    ("ok_ratio", 1.0 -. per_op r (float_of_int r.r_failed), "ratio");
    ("peak_heap_mb", r.r_top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6, "MB");
    ("setup_s", r.r_setup_s, "s");
  ]

(* Per-layer metrics. Span timings exist only in a traced repetition;
   the rest are the program's counters over the timed window. *)
let per_layer r =
  let d k = List.assoc k r.r_delta in
  let calls, total, _ =
    match r.r_layers with
    | Some a -> a
    | None ->
        let z = Array.make (Array.length layer_names) 0 in
        (z, z, z)
  in
  let tot l = float_of_int total.(l) and cnt l = float_of_int calls.(l) in
  let reads = d "paso.local_reads" +. d "paso.remote_reads" in
  [
    ("traffic.gen_ns_per_op", per_op r (tot l_gen), "ns/op");
    ("core.issue_ns_per_op", per_op r (tot l_issue), "ns/op");
    ( "core.obj_class.sc_hit_ratio",
      ratio (d "cache.sc_hits") (d "cache.sc_hits" +. d "cache.sc_misses"),
      "ratio" );
    ("sim.dispatch_ns_per_op", per_op r (tot l_dispatch), "ns/op");
    ("sim.events_per_op", per_op r (float_of_int r.r_events), "events/op");
    ("sim.ns_per_event", ratio (tot l_dispatch) (float_of_int r.r_events), "ns/event");
    ("sim.latency_samples", float_of_int (Hist.count r.r_hist), "count");
    ("net.frames_per_op", per_op r (d "net.frames"), "frames/op");
    ("vsync.gcasts_per_op", per_op r (d "vsync.gcasts"), "gcasts/op");
    ("vsync.view_changes", d "vsync.view_changes", "count");
    ("vsync.joins", d "vsync.joins", "count");
    ("vsync.leaves", d "vsync.leaves", "count");
    ( "core.op.retries_per_kop",
      per_kop r (d "paso.op.retries" +. d "paso.read_retries" +. d "paso.poll_retries"),
      "count/kop" );
    ("core.op.deadline_expired", d "paso.op.deadline_expired", "count");
    ("core.op.fail_ratio", per_op r (float_of_int r.r_failed), "ratio");
    ("core.op.orphaned", float_of_int r.r_orphaned, "count");
    ("core.router.local_read_ratio", ratio (d "paso.local_reads") reads, "ratio");
    ("core.replication.joins_per_kop", per_kop r (d "policy.joins"), "count/kop");
    ("core.replication.leaves_per_kop", per_kop r (d "policy.leaves"), "count/kop");
    ("core.server.queries_per_op", per_op r (d "server.queries"), "count/op");
    ("core.server.stores_per_op", per_op r (d "server.stores"), "count/op");
    ("core.server.removes_per_op", per_op r (d "server.removes"), "count/op");
    ("core.store.work_per_op", per_op r (d "work.total"), "work/op");
    ("durable.appends_per_op", per_op r (d "durable.appends"), "count/op");
    ("durable.wal_bytes_per_op", per_op r (d "durable.wal_bytes"), "B/op");
    ("durable.checkpoints_per_kop", per_kop r (d "durable.checkpoints"), "count/kop");
    ( "durable.checkpoint_bytes_per_checkpoint",
      ratio (d "durable.checkpoint_bytes") (d "durable.checkpoints"),
      "B" );
    ("durable.disk_time_per_op", per_op r (d "durable.disk_time"), "work/op");
    ("durable.delta_bytes", d "durable.delta_bytes", "B");
    ("core.membership.recover_ms_per_call", ratio (tot l_recover) (cnt l_recover) /. 1e6, "ms");
    ("core.shard.advance_us_per_call", ratio (tot l_dispatch) (cnt l_dispatch) /. 1e3, "us");
    ("core.shard.rounds", float_of_int r.r_calls, "count");
    ("core.shard.cross_retries", d "shard.cross_retries", "count");
    ("core.rebalance.migrations", d "rebalance.migrations", "count");
    ("core.rebalance.deferred", d "rebalance.deferred", "count");
    ("core.rebalance.hot_share", r.r_hot_share, "ratio");
    ("core.history.records", float_of_int r.r_records, "count");
    ("gc.minor_words_per_op", per_op r r.r_minor_words, "words/op");
    ("gc.promoted_words_per_op", per_op r r.r_promoted_words, "words/op");
    ("gc.major_collections", float_of_int r.r_major_collections, "count");
  ]

(* ---- streams on disk ---------------------------------------------------- *)

(* Every stream runs in its own process (a fresh heap, a fresh domain
   pool) and leaves two files in the output directory: its record as
   JSON and its latency samples, one hexadecimal float per line. The
   merge step sums the records and rebuilds the repetition's histogram
   from the samples. *)

module J = Check.Json

let stream_file dir name j ext = Filename.concat dir (Printf.sprintf "stream-%s-%d.%s" name j ext)
let ints a = J.Arr (Array.to_list (Array.map (fun x -> J.Num (float_of_int x)) a))
let strs l = J.Arr (List.map (fun s -> J.Str s) l)

let stream_to_json r =
  J.Obj
    ([
       ("setup_s", J.Num r.r_setup_s);
       ("wall_s", J.Num r.r_wall_s);
       ("issued", J.Num (float_of_int r.r_issued));
       ("completed", J.Num (float_of_int r.r_completed));
       ("failed", J.Num (float_of_int r.r_failed));
       ("orphaned", J.Num (float_of_int r.r_orphaned));
       ("delta", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) r.r_delta));
       ("events", J.Num (float_of_int r.r_events));
       ("calls", J.Num (float_of_int r.r_calls));
       ("records", J.Num (float_of_int r.r_records));
       ("hot_share", J.Num r.r_hot_share);
       ("minor_words", J.Num r.r_minor_words);
       ("promoted_words", J.Num r.r_promoted_words);
       ("major_collections", J.Num (float_of_int r.r_major_collections));
       ("top_heap_words", J.Num r.r_top_heap_words);
       ("digest", J.Str r.r_digest);
       ("problems", strs r.r_problems);
     ]
    @ (match r.r_check with
      | Some (s, v) -> [ ("check", J.Obj [ ("verify_s", J.Num s); ("violations", strs v) ]) ]
      | None -> [])
    @
    match r.r_layers with
    | Some (calls, total, self) ->
        [ ("layers", J.Obj [ ("calls", ints calls); ("total", ints total); ("self", ints self) ]) ]
    | None -> [])

let stream_of_json j =
  let ok = function Ok v -> v | Error e -> failwith e in
  let field j k = match J.get j k with Some v -> v | None -> failwith ("missing " ^ k) in
  let num k = ok (J.to_float (field j k)) and int k = ok (J.to_int (field j k)) in
  let strings j = List.map (fun s -> ok (J.to_str s)) (ok (J.to_list j)) in
  let int_array j = Array.of_list (List.map (fun x -> ok (J.to_int x)) (ok (J.to_list j))) in
  {
    r_setup_s = num "setup_s";
    r_wall_s = num "wall_s";
    r_issued = int "issued";
    r_completed = int "completed";
    r_failed = int "failed";
    r_orphaned = int "orphaned";
    r_hist = Hist.create ();
    r_delta = List.map (fun k -> (k, ok (J.to_float (field (field j "delta") k)))) stat_keys;
    r_events = int "events";
    r_calls = int "calls";
    r_records = int "records";
    r_hot_share = num "hot_share";
    r_minor_words = num "minor_words";
    r_promoted_words = num "promoted_words";
    r_major_collections = int "major_collections";
    r_top_heap_words = num "top_heap_words";
    r_digest = ok (J.to_str (field j "digest"));
    r_check =
      Option.map
        (fun c -> (ok (J.to_float (field c "verify_s")), strings (field c "violations")))
        (J.get j "check");
    r_problems = strings (field j "problems");
    r_layers =
      Option.map
        (fun l ->
          (int_array (field l "calls"), int_array (field l "total"), int_array (field l "self")))
        (J.get j "layers");
  }

(* A repetition: its streams' records summed, their histograms merged
   sample by sample, the heap peak averaged. *)
let combine rs =
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let sumf f = List.fold_left (fun a r -> a +. f r) 0.0 rs in
  let k = float_of_int (List.length rs) in
  let hist = Hist.create () in
  List.iter (fun r -> Hist.merge ~into:hist r.r_hist) rs;
  let add_arrays a b = Array.map2 ( + ) a b in
  let add_layers acc r =
    match (acc, r.r_layers) with
    | Some (c, t, s), Some (c', t', s') -> Some (add_arrays c c', add_arrays t t', add_arrays s s')
    | None, l | l, None -> l
  in
  {
    r_setup_s = sumf (fun r -> r.r_setup_s);
    r_wall_s = sumf (fun r -> r.r_wall_s);
    r_issued = sum (fun r -> r.r_issued);
    r_completed = sum (fun r -> r.r_completed);
    r_failed = sum (fun r -> r.r_failed);
    r_orphaned = sum (fun r -> r.r_orphaned);
    r_hist = hist;
    r_delta = List.map (fun k -> (k, sumf (fun r -> List.assoc k r.r_delta))) stat_keys;
    r_events = sum (fun r -> r.r_events);
    r_calls = sum (fun r -> r.r_calls);
    r_records = sum (fun r -> r.r_records);
    r_hot_share = sumf (fun r -> r.r_hot_share) /. k;
    r_minor_words = sumf (fun r -> r.r_minor_words);
    r_promoted_words = sumf (fun r -> r.r_promoted_words);
    r_major_collections = sum (fun r -> r.r_major_collections);
    r_top_heap_words = sumf (fun r -> r.r_top_heap_words) /. k;
    r_digest =
      Digest.to_hex (Digest.string (String.concat "" (List.map (fun r -> r.r_digest) rs)));
    r_check =
      (if List.exists (fun r -> r.r_check <> None) rs then
         Some
           ( sumf (fun r -> match r.r_check with Some (s, _) -> s | None -> 0.0),
             List.concat_map (fun r -> match r.r_check with Some (_, v) -> v | None -> []) rs )
       else None);
    r_problems = List.concat_map (fun r -> r.r_problems) rs;
    r_layers = List.fold_left add_layers None rs;
  }

let rep_to_json w ~seed r =
  let metrics l =
    J.Obj (List.map (fun (k, v, u) -> (k, J.Obj [ ("value", J.Num v); ("unit", J.Str u) ])) l)
  in
  let h = r.r_hist in
  let rank = min (Hist.count h) ((Hist.count h * 999 / 1000) + 1) in
  let wi, wr, wt = w.mix in
  let num x = J.Num (float_of_int x) in
  J.Obj
    ([
       ( "workload",
         J.Obj
           [
             ("name", J.Str w.w_name);
             ("seed", num seed);
             ("n", num n);
             ("lambda", num lambda);
             ("shards", num w.shards);
             ("domains", num w.domains);
             ("classes", num w.classes);
             ("zipf_s", J.Num w.zipf_s);
             ("mix", J.Str (Printf.sprintf "%d:%d:%d" wi wr wt));
             ("policy", J.Str w.policy);
             ("rate", J.Num w.rate);
             ("preload_per_class", num w.preload);
             ("ops_per_stream", num w.ops);
             ("streams", num w.streams);
             ("rebalance", J.Bool w.rebalance);
             ( "wal_checkpoint_every",
               if w.durable then num Durable.Manager.default_policy.checkpoint_every
               else J.Null );
             ( "crash_rota",
               match w.rota with
               | Some (p, dt) -> J.Obj [ ("period", J.Num p); ("down_time", J.Num dt) ]
               | None -> J.Null );
           ] );
       ("digest", J.Str r.r_digest);
       ("issued", num r.r_issued);
       ("failed", num r.r_failed);
       ("beyond_p999", num (Hist.count h - rank));
       ("end_to_end", metrics (end_to_end r));
       ("per_layer", metrics (per_layer r));
       ("problems", strs r.r_problems);
     ]
    @ (match r.r_layers with
      | Some (calls, total, self) ->
          [
            ( "spans",
              J.Arr
                (Array.to_list
                   (Array.mapi
                      (fun l nm ->
                        J.Obj
                          [
                            ("layer", J.Str nm);
                            ("calls", num calls.(l));
                            ("total_ns", num total.(l));
                            ("self_ns", num self.(l));
                          ])
                      layer_names)) );
          ]
      | None -> [])
    @
    match r.r_check with
    | Some (s, v) -> [ ("check", J.Obj [ ("verify_s", J.Num s); ("violations", strs v) ]) ]
    | None -> [])

(* ---- command line ------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe stream --workload <name> --seed <n> --stream <j> --trace <0|1> \
     --check <0|1> --out-dir <dir>\n\
    \       bench.exe merge --workload <name> --seed <n> --out-dir <dir>\n\
     [stream] runs one input stream and leaves its record in <dir>; [merge] sums a\n\
     repetition's streams and prints it as one JSON line. perfbench/run.py drives both.";
  exit 2

let () =
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let mode, opts =
    match List.tl (Array.to_list Sys.argv) with
    | mode :: rest -> (mode, parse [] rest)
    | [] -> usage ()
  in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_opt k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let flag k = match get k with "0" -> false | "1" -> true | _ -> usage () in
  let name = get "workload" and seed = int_opt "seed" and dir = get "out-dir" in
  let w =
    match List.find_opt (fun w -> w.w_name = name) workloads with
    | Some w -> w
    | None -> usage ()
  in
  match mode with
  | "stream" ->
      let j = int_opt "stream" in
      if j < 0 || j >= w.streams then usage ();
      Spans.on := flag "trace";
      let r, samples = run_stream w ~seed ~stream:j ~check:(flag "check") in
      Out_channel.with_open_text (stream_file dir name j "samples") (fun oc ->
          List.iter (Printf.fprintf oc "%h\n") samples);
      Out_channel.with_open_text (stream_file dir name j "json") (fun oc ->
          output_string oc (J.to_string (stream_to_json r)));
      if !Spans.on then
        Spans.write_jsonl (Filename.concat dir (Printf.sprintf "trace-%s-%d.jsonl" name j));
      Printf.printf "{\"streams\": %d}\n" w.streams
  | "merge" ->
      let stream j =
        let r = stream_of_json (In_channel.with_open_text (stream_file dir name j "json") (fun ic ->
          match J.of_string (In_channel.input_all ic) with Ok v -> v | Error e -> failwith e)) in
        In_channel.with_open_text (stream_file dir name j "samples") (fun ic ->
            Seq.iter
              (fun l -> Hist.record r.r_hist (float_of_string l))
              (Seq.of_dispenser (fun () -> In_channel.input_line ic)));
        r
      in
      print_endline (J.to_string (rep_to_json w ~seed (combine (List.init w.streams stream))))
  | _ -> usage ()

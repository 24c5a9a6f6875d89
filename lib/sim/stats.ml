(* Interned-handle implementation: every key resolves (once) to a
   mutable cell; the hot paths hold the cell and never touch the hash
   table again. The string-keyed API survives as a convenience wrapper
   that does one lookup per call — exactly the seed behaviour — so
   cold paths and tests are unchanged. *)

type counter = { mutable c_v : int }
type accumulator = { mutable a_v : float }

type series = {
  mutable s_data : float array;  (* samples in arrival order, [0..s_n) *)
  mutable s_n : int;
  mutable s_sum : float;
  mutable s_sorted : float array;  (* sorted copy of the first s_sorted_n samples *)
  mutable s_sorted_n : int;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  totals : (string, accumulator) Hashtbl.t;
  dists : (string, series) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; totals = Hashtbl.create 32; dists = Hashtbl.create 32 }

(* --- handle constructors (resolve once, at component-create time) --- *)

let counter t key =
  match Hashtbl.find_opt t.counters key with
  | Some c -> c
  | None ->
      let c = { c_v = 0 } in
      Hashtbl.add t.counters key c;
      c

let counter_bank t ~prefix names =
  Array.map (fun name -> counter t (prefix ^ "." ^ name)) names

let accumulator t key =
  match Hashtbl.find_opt t.totals key with
  | Some a -> a
  | None ->
      let a = { a_v = 0.0 } in
      Hashtbl.add t.totals key a;
      a

let series t key =
  match Hashtbl.find_opt t.dists key with
  | Some s -> s
  | None ->
      let s = { s_data = [||]; s_n = 0; s_sum = 0.0; s_sorted = [||]; s_sorted_n = 0 } in
      Hashtbl.add t.dists key s;
      s

(* --- handle operations (no hashing, no allocation) --- *)

let incr_counter c = c.c_v <- c.c_v + 1
let add_to a v = a.a_v <- a.a_v +. v

let observe_series s v =
  let cap = Array.length s.s_data in
  if s.s_n = cap then begin
    let grown = Array.make (max 16 (2 * cap)) 0.0 in
    Array.blit s.s_data 0 grown 0 s.s_n;
    s.s_data <- grown
  end;
  s.s_data.(s.s_n) <- v;
  s.s_n <- s.s_n + 1;
  s.s_sum <- s.s_sum +. v

(* --- string-keyed API (one lookup per call) --- *)

let incr t key = incr_counter (counter t key)
let add t key v = add_to (accumulator t key) v
let observe t key v = observe_series (series t key) v

let count t key =
  match Hashtbl.find_opt t.counters key with Some c -> c.c_v | None -> 0

let total t key =
  match Hashtbl.find_opt t.totals key with Some a -> a.a_v | None -> 0.0

let dist_opt t key = Hashtbl.find_opt t.dists key

(* Bring the sorted view up to date incrementally: sort only the
   samples that arrived since the last refresh and merge them with the
   already-sorted prefix — O(k log k + n) for k new samples instead of
   the seed's full O(n log n) re-sort. *)
let refresh_sorted s =
  if s.s_sorted_n < s.s_n then begin
    let k = s.s_n - s.s_sorted_n in
    let fresh = Array.sub s.s_data s.s_sorted_n k in
    Array.sort Float.compare fresh;
    let merged = Array.make s.s_n 0.0 in
    let a = s.s_sorted and b = fresh in
    let na = s.s_sorted_n and nb = k in
    let i = ref 0 and j = ref 0 in
    for m = 0 to s.s_n - 1 do
      if !i < na && (!j >= nb || a.(!i) <= b.(!j)) then begin
        merged.(m) <- a.(!i);
        Stdlib.incr i
      end
      else begin
        merged.(m) <- b.(!j);
        Stdlib.incr j
      end
    done;
    s.s_sorted <- merged;
    s.s_sorted_n <- s.s_n
  end

let mean t key =
  match dist_opt t key with
  | None -> None
  | Some s -> if s.s_n = 0 then None else Some (s.s_sum /. float_of_int s.s_n)

let fold_samples f init s =
  let acc = ref init in
  for i = 0 to s.s_n - 1 do
    acc := f !acc s.s_data.(i)
  done;
  !acc

let max_sample t key =
  match dist_opt t key with
  | None -> None
  | Some s -> if s.s_n = 0 then None else Some (fold_samples Float.max neg_infinity s)

let min_sample t key =
  match dist_opt t key with
  | None -> None
  | Some s -> if s.s_n = 0 then None else Some (fold_samples Float.min infinity s)

let percentile t key p =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile";
  match dist_opt t key with
  | None -> None
  | Some s ->
      if s.s_n = 0 then None
      else begin
        refresh_sorted s;
        let n = s.s_n in
        let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
        let idx = max 0 (min (n - 1) (rank - 1)) in
        Some s.s_sorted.(idx)
      end

let samples t key = match dist_opt t key with Some s -> s.s_n | None -> 0

(* Zero every cell instead of emptying the tables: handles resolved
   before the reset stay attached and keep recording. [keys] below
   only reports keys with recorded data, so a reset still reads as
   empty. *)
let reset t =
  Hashtbl.iter (fun _ c -> c.c_v <- 0) t.counters;
  Hashtbl.iter (fun _ a -> a.a_v <- 0.0) t.totals;
  Hashtbl.iter
    (fun _ s ->
      s.s_data <- [||];
      s.s_n <- 0;
      s.s_sum <- 0.0;
      s.s_sorted <- [||];
      s.s_sorted_n <- 0)
    t.dists

let keys t =
  let acc = Hashtbl.create 32 in
  Hashtbl.iter (fun k c -> if c.c_v <> 0 then Hashtbl.replace acc k ()) t.counters;
  Hashtbl.iter (fun k a -> if a.a_v <> 0.0 then Hashtbl.replace acc k ()) t.totals;
  Hashtbl.iter (fun k s -> if s.s_n > 0 then Hashtbl.replace acc k ()) t.dists;
  Hashtbl.fold (fun k () l -> k :: l) acc [] |> List.sort compare

let pp ppf t =
  let pp_key ppf k =
    let c = count t k and tot = total t k in
    if c <> 0 then Format.fprintf ppf "%s: count=%d" k c
    else if tot <> 0.0 then Format.fprintf ppf "%s: total=%.3f" k tot
    else
      match mean t k with
      | Some m -> Format.fprintf ppf "%s: n=%d mean=%.3f" k (samples t k) m
      | None -> Format.fprintf ppf "%s: (empty)" k
  in
  Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list pp_key) (keys t)

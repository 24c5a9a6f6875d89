type step =
  | Insert of int * int
  | Read of int * int
  | Take of int * int
  | Snapshot of int
  | Crash of int
  | Recover
  | Advance

type arm = { arm_site : string; arm_skip : int; arm_times : int; arm_action : string }

type config = {
  n : int;
  lambda : int;
  classing : string;
  storage : string;
  policy : string;
  coalesce : bool;
  eager : bool;
  wan_clusters : int;
  repair : string;
  durable : bool;
  fast_read : bool;
  batch_ops : int;
  batch_bytes : int;
  batch_hold : float;
  shards : int;
  rebalance : bool;
  seed : int;
  arms : arm list;
}

let batching c = c.batch_ops > 0 || c.batch_bytes > 0 || c.batch_hold > 0.0

let default =
  {
    n = 8;
    lambda = 2;
    classing = "head";
    storage = "hash";
    policy = "static";
    coalesce = false;
    eager = false;
    wan_clusters = 0;
    repair = "none";
    durable = false;
    fast_read = false;
    batch_ops = 0;
    batch_bytes = 0;
    batch_hold = 0.0;
    shards = 1;
    rebalance = false;
    seed = 0;
    arms = [];
  }

let label c =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (Printf.sprintf "n=%d λ=%d %s/%s/%s" c.n c.lambda c.classing c.storage c.policy);
  if c.coalesce then Buffer.add_string b " coalesced";
  if c.eager then Buffer.add_string b " eager";
  if c.wan_clusters > 1 then Buffer.add_string b (Printf.sprintf " wan=%d" c.wan_clusters);
  if c.repair <> "none" then Buffer.add_string b (Printf.sprintf " repair=%s" c.repair);
  if c.durable then Buffer.add_string b " durable";
  if c.fast_read then Buffer.add_string b " fast-read";
  if batching c then
    Buffer.add_string b
      (Printf.sprintf " batch=%d/%d/%g" c.batch_ops c.batch_bytes c.batch_hold);
  if c.shards > 1 then Buffer.add_string b (Printf.sprintf " shards=%d" c.shards);
  if c.rebalance then Buffer.add_string b " rebalance";
  if c.arms <> [] then
    Buffer.add_string b
      (Printf.sprintf " arms=[%s]" (String.concat ";" (List.map (fun a -> a.arm_site) c.arms)));
  Buffer.contents b

let step_name = function
  | Insert _ -> "insert"
  | Read _ -> "read"
  | Take _ -> "take"
  | Snapshot _ -> "snapshot"
  | Crash _ -> "crash"
  | Recover -> "recover"
  | Advance -> "advance"

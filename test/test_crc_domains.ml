(* The CRC-32 table is shared by every durable shard, and shards run on
   several OCaml domains at once. This suite is its own executable so
   that nothing has computed a checksum before it starts: the very
   first [Crc.string] calls of the process happen concurrently, from
   every domain of a [Sim.Parallel.map], released together by a spin
   barrier. A table built on first use (a shared [lazy]) raises
   [CamlinternalLazy.Undefined] out of the map when two domains race to
   build it; the module-initialised table must give every domain the
   IEEE check value. *)

let domains = 4

let test_first_use_from_every_domain () =
  let arrived = Atomic.make 0 in
  let results, _ =
    Sim.Parallel.map ~domains ~total:domains (fun _ ->
        Atomic.incr arrived;
        while Atomic.get arrived < domains do
          Domain.cpu_relax ()
        done;
        Durable.Crc.string "123456789")
  in
  Array.iteri
    (fun i crc ->
      Alcotest.(check int) (Printf.sprintf "domain %d check value" i) 0xCBF43926 crc)
    results

let () =
  Alcotest.run "crc-domains"
    [
      ( "crc",
        [
          Alcotest.test_case "first use from every domain at once" `Quick
            test_first_use_from_every_domain;
        ] );
    ]

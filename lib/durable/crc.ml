(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
   Guarantees: any burst error of at most 32 bits — in particular any
   single corrupted byte — changes the checksum, which is what the WAL
   frame check relies on. *)

(* Built eagerly at module initialisation, before any domain exists:
   durable shards on different domains read it concurrently, and a
   shared [lazy] forced from two domains at once raises
   [CamlinternalLazy.Undefined]. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let update crc s ~pos ~len =
  let crc = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    crc := table.((!crc lxor Char.code (String.unsafe_get s i)) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let string s = update 0 s ~pos:0 ~len:(String.length s)

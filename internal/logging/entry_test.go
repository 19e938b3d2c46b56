package logging

import (
	"math/rand"
	"testing"
)

// crc16BitSerial is the CRC-16/CCITT-FALSE definition, one bit at a time:
// the reference every faster crc16 must match bit for bit, because the
// checksum is part of the on-media seal format.
func crc16BitSerial(b []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, c := range b {
		crc ^= uint16(c) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// The table-driven CRC must match the reference CRC-16/CCITT-FALSE
// check value ("123456789" -> 0x29B1) and the bit-serial definition on
// random bytes at every length from empty past a whole sealed record
// (MaxSealedBytes), so every mix of 8-byte blocks and tail bytes runs.
func TestCRC16KnownAnswer(t *testing.T) {
	for name, crc := range map[string]func([]byte) uint16{"crc16": crc16, "bit-serial": crc16BitSerial} {
		if got := crc([]byte("123456789")); got != 0x29B1 {
			t.Fatalf("%s check value = %#04x, want 0x29b1", name, got)
		}
	}
	rng := rand.New(rand.NewSource(29))
	buf := make([]byte, 2*MaxSealedBytes)
	for trial := 0; trial < 200; trial++ {
		rng.Read(buf)
		for n := 0; n <= len(buf); n++ {
			if got, want := crc16(buf[:n]), crc16BitSerial(buf[:n]); got != want {
				t.Fatalf("trial %d len %d (% x): crc16 %#04x != bit-serial %#04x",
					trial, n, buf[:n], got, want)
			}
		}
	}
}

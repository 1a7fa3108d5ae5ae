package main

import (
	"encoding/binary"
	"hash/crc32"
)

// payloadSize is the size of every generated payload (bytes).
const payloadSize = 100

// Payload layout: [0:8] key (the generator's index of the message, little
// endian), [8:12] the broadcasting process, [12:96] filler derived from the
// workload seed and the key, [96:100] CRC-32 (IEEE) of bytes 0..95. The
// generator writes the checksum; the benchmark verifies it on every
// delivery, so a payload corrupted or swapped anywhere in the stack shows.
const payloadBody = payloadSize - 4

// makePayload builds the payload of message key broadcast by sender.
func makePayload(seed int64, key uint64, sender int) []byte {
	b := make([]byte, payloadSize)
	binary.LittleEndian.PutUint64(b[0:8], key)
	binary.LittleEndian.PutUint32(b[8:12], uint32(sender))
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ (key+1)*0xBF58476D1CE4E5B9
	for i := 12; i < payloadBody; i++ {
		// xorshift64*: cheap, deterministic filler.
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		b[i] = byte((x * 0x2545F4914F6CDD1D) >> 56)
	}
	binary.LittleEndian.PutUint32(b[payloadBody:], crc32.ChecksumIEEE(b[:payloadBody]))
	return b
}

// readPayload returns the key and sender a payload carries, and whether
// its checksum holds.
func readPayload(b []byte) (key uint64, sender int, ok bool) {
	if len(b) != payloadSize {
		return 0, 0, false
	}
	if crc32.ChecksumIEEE(b[:payloadBody]) != binary.LittleEndian.Uint32(b[payloadBody:]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(b[0:8]), int(binary.LittleEndian.Uint32(b[8:12])), true
}

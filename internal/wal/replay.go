package wal

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
)

// replaySegment verifies and replays one segment file. first is the sequence
// number its first record must carry; final marks the last segment of the
// log, the only place where a torn tail is tolerated. It returns the byte
// offset just past the last good record (the truncation point for a torn
// tail), the sequence number of the last good record, and how many records
// were delivered.
//
// Defect classification: any malformed record that is the FINAL record of
// the FINAL segment — truncated line, short payload, header that does not
// parse, CRC or length mismatch, broken sequence number — is a torn tail: a
// crash mid-append explains it, so it is dropped with a warning. The same
// defect anywhere earlier cannot be a crash artifact (records after it made
// it to disk intact), so it fails loud.
func (l *Log) replaySegment(path string, first uint64, final bool, replay func(Entry) error) (goodEnd int64, lastGood uint64, n int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: %w", err)
	}
	name := filepath.Base(path)
	want := first
	offset := int64(0)
	for len(data) > 0 {
		line := data
		nl := bytes.IndexByte(data, '\n')
		torn := false
		if nl < 0 {
			// No newline: the final line was truncated mid-write.
			torn = true
		} else {
			line = data[:nl]
		}
		isLast := torn || nl == len(data)-1
		entry, perr := parseFrame(line, want)
		if perr != nil || torn {
			if final && isLast {
				reason := "truncated"
				if perr != nil {
					reason = perr.Error()
				}
				l.log.Warn("wal: dropping torn tail record",
					"segment", name, "seq", want, "offset", offset, "reason", reason)
				l.stats.torn++
				return offset, want - 1, n, nil
			}
			reason := "truncated"
			if perr != nil {
				reason = perr.Error()
			}
			return 0, 0, 0, fmt.Errorf("wal: %s: corrupt record %d at offset %d before the final record: %s (not a torn tail — refusing to replay past it)",
				name, want, offset, reason)
		}
		if replay != nil {
			if rerr := replay(entry); rerr != nil {
				return 0, 0, 0, fmt.Errorf("wal: %s: replaying record %d: %w", name, entry.Seq, rerr)
			}
		}
		l.stats.replayed++
		n++
		lastGood = want
		want++
		offset += int64(nl) + 1
		data = data[nl+1:]
	}
	return offset, lastGood, n, nil
}

// parseFrame decodes one framed line (without its trailing newline) and
// verifies sequence number, length and CRC.
func parseFrame(line []byte, wantSeq uint64) (Entry, error) {
	rest := line
	next := func() ([]byte, error) {
		i := bytes.IndexByte(rest, ' ')
		if i < 0 {
			return nil, fmt.Errorf("short frame header")
		}
		f := rest[:i]
		rest = rest[i+1:]
		return f, nil
	}
	seqF, err := next()
	if err != nil {
		return Entry{}, err
	}
	lenF, err := next()
	if err != nil {
		return Entry{}, err
	}
	crcF, err := next()
	if err != nil {
		return Entry{}, err
	}
	seq, err := strconv.ParseUint(string(seqF), 10, 64)
	if err != nil {
		return Entry{}, fmt.Errorf("bad sequence field %q", seqF)
	}
	if seq != wantSeq {
		return Entry{}, fmt.Errorf("sequence %d, want %d", seq, wantSeq)
	}
	plen, err := strconv.ParseInt(string(lenF), 10, 64)
	if err != nil || plen < 0 {
		return Entry{}, fmt.Errorf("bad length field %q", lenF)
	}
	if int64(len(rest)) != plen {
		return Entry{}, fmt.Errorf("payload is %d bytes, frame declares %d", len(rest), plen)
	}
	wantCRC, err := strconv.ParseUint(string(crcF), 16, 32)
	if err != nil {
		return Entry{}, fmt.Errorf("bad CRC field %q", crcF)
	}
	if got := crc32.ChecksumIEEE(rest); uint64(got) != wantCRC {
		return Entry{}, fmt.Errorf("CRC mismatch: payload %08x, frame %08x", got, wantCRC)
	}
	return Entry{Seq: seq, Payload: rest}, nil
}

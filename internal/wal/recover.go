package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// ScanResult is the outcome of scanning a log file: the longest valid
// record prefix and where it ends.
type ScanResult struct {
	// Records are the intact records, in LSN order.
	Records []Record
	// Offsets[i] is the byte offset of Records[i]'s frame — the crash
	// boundaries the torture harness cuts at.
	Offsets []int64
	// End is the byte offset just past the last intact record: the
	// length of the valid prefix.
	End int64
	// Torn reports that scanning stopped at a torn or corrupt frame
	// (short header, short payload, implausible length, CRC mismatch, or
	// non-increasing LSN) rather than clean EOF.
	Torn bool
}

// LastLSN returns the final intact record's LSN, or 0 on an empty log.
func (r *ScanResult) LastLSN() uint64 {
	if len(r.Records) == 0 {
		return 0
	}
	return r.Records[len(r.Records)-1].LSN
}

// Scan reads records from r until EOF or the first invalid frame.
// A torn or corrupt frame ends the scan (marked Torn) without error:
// everything after the valid prefix is unreachable at recovery anyway,
// since LSNs past a gap cannot be trusted. Only genuine read errors
// are returned.
func Scan(r io.Reader) (*ScanResult, error) {
	br := bufio.NewReader(r)
	res := &ScanResult{}
	hdr := make([]byte, headerSize)
	var off int64
	var lastLSN uint64
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			if err == io.EOF {
				return res, nil
			}
			if err == io.ErrUnexpectedEOF {
				res.Torn = true
				return res, nil
			}
			return nil, fmt.Errorf("wal: scan: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n > maxPayload {
			res.Torn = true
			return res, nil
		}
		payload, err := readPayload(br, int(n))
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				res.Torn = true
				return res, nil
			}
			return nil, fmt.Errorf("wal: scan: %w", err)
		}
		crc := crc32.Checksum(hdr[8:], castagnoli)
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != binary.LittleEndian.Uint32(hdr[4:8]) {
			res.Torn = true
			return res, nil
		}
		lsn := binary.LittleEndian.Uint64(hdr[8:16])
		if lsn <= lastLSN {
			res.Torn = true
			return res, nil
		}
		lastLSN = lsn
		res.Records = append(res.Records, Record{
			LSN:     lsn,
			TxID:    binary.LittleEndian.Uint64(hdr[16:24]),
			Type:    Type(hdr[24]),
			Payload: payload,
		})
		res.Offsets = append(res.Offsets, off)
		off += int64(headerSize) + int64(n)
		res.End = off
	}
}

// readPayload reads an n-byte payload into a buffer that grows with the
// bytes that arrive (at most doubling, from 64 KiB), so the length a
// torn or corrupt header declares costs at most about twice the input,
// not the declared size.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, 64<<10))
	for read := 0; ; {
		m, err := io.ReadFull(r, buf[read:])
		if read += m; err != nil || read == n {
			return buf[:read], err
		}
		more := min(n-read, read)
		buf = slices.Grow(buf, more)[:read+more]
	}
}

// Recover scans the log file at path and, if the scan found a torn
// tail, truncates the file to the valid prefix in place (fsynced), so
// a subsequent Open appends cleanly after the last intact record. A
// missing file yields an empty result.
func Recover(path string) (*ScanResult, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		if os.IsNotExist(err) {
			return &ScanResult{}, nil
		}
		return nil, fmt.Errorf("wal: recover: %w", err)
	}
	defer f.Close()
	res, err := Scan(f)
	if err != nil {
		return nil, err
	}
	if res.Torn {
		if err := f.Truncate(res.End); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	return res, nil
}
